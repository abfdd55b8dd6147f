package campaign

import (
	"context"
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/core"
	"microtools/internal/ir"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/passes"
	"microtools/internal/telemetry"
)

// dropAllVariants is a Customize hook that inserts a pass discarding every
// kernel, so generation succeeds but emits nothing.
func dropAllVariants(m *passes.Manager) error {
	drop := &passes.Pass{Name: "drop-all", Gate: passes.AlwaysGate,
		Run: func(_ *passes.Context, _ []*ir.Kernel) ([]*ir.Kernel, error) { return nil, nil }}
	return m.InsertAfter("unroll", drop)
}

// TestErrorTaxonomy pins the exported error shape of every failure class
// across Run and RunFile: setup failures (spec open, generation) surface
// as *SetupError with the cause reachable through errors.Is/As, an empty
// sweep is the ErrNoVariants sentinel, measurement failures aggregate
// into *Error/*VariantError, and cancellation is the caller's ctx error.
// Both entry points always return a non-nil Result, and close their
// observers' event stream with the settled totals and one End(err).
func TestErrorTaxonomy(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, opts Options) (*Result, error)
		pin  func(t *testing.T, err error)
	}{
		{
			name: "open failure is a SetupError wrapping fs.ErrNotExist",
			run: func(t *testing.T, opts Options) (*Result, error) {
				return RunFile(context.Background(), filepath.Join(t.TempDir(), "missing.xml"),
					core.GenerateOptions{}, opts)
			},
			pin: func(t *testing.T, err error) {
				var se *SetupError
				if !errors.As(err, &se) || se.Stage != "open" {
					t.Fatalf("want *SetupError stage open, got %v", err)
				}
				if se.Path == "" {
					t.Error("open SetupError lacks the spec path")
				}
				if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("fs.ErrNotExist not reachable through %v", err)
				}
			},
		},
		{
			name: "malformed spec is a SetupError at the generate stage",
			run: func(t *testing.T, opts Options) (*Result, error) {
				return Run(context.Background(), strings.NewReader("<notes/>"),
					core.GenerateOptions{}, opts)
			},
			pin: func(t *testing.T, err error) {
				var se *SetupError
				if !errors.As(err, &se) || se.Stage != "generate" {
					t.Fatalf("want *SetupError stage generate, got %v", err)
				}
			},
		},
		{
			name: "customize failure keeps its cause through the SetupError",
			run: func(t *testing.T, opts Options) (*Result, error) {
				gen := core.GenerateOptions{Customize: func(*passes.Manager) error { return errBoom }}
				return Run(context.Background(), strings.NewReader(sweepSpec), gen, opts)
			},
			pin: func(t *testing.T, err error) {
				var se *SetupError
				if !errors.As(err, &se) {
					t.Fatalf("want *SetupError, got %v", err)
				}
				if !errors.Is(err, errBoom) {
					t.Errorf("cause not reachable through %v", err)
				}
			},
		},
		{
			name: "empty sweep is the ErrNoVariants sentinel",
			run: func(t *testing.T, opts Options) (*Result, error) {
				gen := core.GenerateOptions{Customize: dropAllVariants}
				return Run(context.Background(), strings.NewReader(sweepSpec), gen, opts)
			},
			pin: func(t *testing.T, err error) {
				if !errors.Is(err, ErrNoVariants) {
					t.Fatalf("want ErrNoVariants, got %v", err)
				}
				var se *SetupError
				if errors.As(err, &se) {
					t.Errorf("empty sweep misclassified as a setup failure: %v", err)
				}
			},
		},
		{
			name: "variant failures aggregate into Error and VariantError",
			run: func(t *testing.T, opts Options) (*Result, error) {
				opts.launch = func(context.Context, *isa.Program, launcher.Options) (*launcher.Measurement, error) {
					return nil, errBoom
				}
				return Run(context.Background(), strings.NewReader(sweepSpec),
					core.GenerateOptions{}, opts)
			},
			pin: func(t *testing.T, err error) {
				var ce *Error
				if !errors.As(err, &ce) || len(ce.Failed) != 4 {
					t.Fatalf("want *Error with 4 failures, got %v", err)
				}
				var ve *VariantError
				if !errors.As(err, &ve) {
					t.Errorf("per-variant error not reachable through %v", err)
				}
				if !errors.Is(err, errBoom) {
					t.Errorf("launch cause not reachable through %v", err)
				}
			},
		},
		{
			name: "cancellation surfaces the caller's ctx error",
			run: func(t *testing.T, opts Options) (*Result, error) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return Run(ctx, strings.NewReader(sweepSpec),
					core.GenerateOptions{}, opts)
			},
			pin: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			res, err := tc.run(t, NewOptions(WithLaunch(quickLaunch()), WithObservers(rec)))
			if res == nil {
				t.Fatal("Result is nil: both entry points must return a usable Result")
			}
			if err == nil {
				t.Fatal("expected an error")
			}
			tc.pin(t, err)
			rec.check(t, res, err)
		})
	}
}

// TestNewOptionsSetters proves the functional constructor reaches every
// public field and that nil setters are tolerated.
func TestNewOptionsSetters(t *testing.T) {
	cache := NewMemoryCache()
	observer := UpdateFunc(func(telemetry.CampaignUpdate) {})
	metrics := telemetry.NewMetrics(telemetry.NewRegistry())
	opts := NewOptions(
		nil,
		WithLaunch(quickLaunch()),
		WithWorkers(3),
		WithBuffer(9),
		WithFailFast(true),
		WithCache(cache),
		WithObservers(observer),
		WithObservers(observer),
		WithMetrics(metrics),
		WithVariantDeadline(42),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 5}),
		WithQuarantine(2),
		WithCheckBounds(true),
	)
	if opts.Workers != 3 || opts.Buffer != 9 || !opts.FailFast || opts.Cache != cache {
		t.Errorf("execution setters not applied: %+v", opts)
	}
	if len(opts.Observers) != 2 || opts.Metrics != metrics {
		t.Errorf("telemetry setters not applied: %+v", opts)
	}
	if opts.VariantDeadline != 42 || opts.Retry.MaxAttempts != 5 || opts.Quarantine != 2 || !opts.CheckBounds {
		t.Errorf("resilience setters not applied: %+v", opts)
	}
	if opts.Launch.MachineName != quickLaunch().MachineName {
		t.Errorf("launch setter not applied: %+v", opts.Launch)
	}
}

// TestNewOptionsRuns is the end-to-end smoke: a campaign configured only
// through the constructor behaves exactly like an Options literal.
func TestNewOptionsRuns(t *testing.T) {
	cache := NewMemoryCache()
	res := runSweep(t, NewOptions(WithLaunch(quickLaunch()), WithCache(cache), WithWorkers(2)))
	if res.Emitted != 4 || res.Launches != 4 {
		t.Fatalf("emitted=%d launches=%d, want 4/4", res.Emitted, res.Launches)
	}
	warm := runSweep(t, NewOptions(WithLaunch(quickLaunch()), WithCache(cache)))
	if warm.CacheHits != 4 || warm.Launches != 0 {
		t.Fatalf("warm run hits=%d launches=%d, want 4/0", warm.CacheHits, warm.Launches)
	}
}
