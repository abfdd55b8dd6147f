package microtools

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/sim"
	"microtools/internal/telemetry"
	"microtools/internal/verify"
)

// TestDifferentialPipelinePaths is the IR-first refactor's equivalence
// oracle: over every shipped spec, the batch pipeline (Generate), the
// streaming pipeline (GenerateStream) and the text round trip (render the
// assembly, re-parse it) must agree bit for bit — same programs, same
// decoded instructions, same cache keys, same verifier diagnostics. Any
// divergence means the lowering in internal/codegen and the parser in
// internal/asm have drifted apart.
func TestDifferentialPipelinePaths(t *testing.T) {
	paths, err := filepath.Glob("specs/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the shipped spec library, found %d files", len(paths))
	}
	launch := DefaultLaunchOptions()
	keyer, err := campaign.NewKeyer(launch)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec := string(data)
		t.Run(filepath.Base(path), func(t *testing.T) {
			batch, err := core.Generate(context.Background(), strings.NewReader(spec), core.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var streamed []codegen.Program
			if _, err := core.GenerateStream(context.Background(), strings.NewReader(spec), core.GenerateOptions{},
				func(p codegen.Program) error {
					streamed = append(streamed, p)
					return nil
				}); err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(streamed) {
				t.Fatalf("batch generated %d variants, stream %d", len(batch), len(streamed))
			}
			for i := range batch {
				b, s := &batch[i], &streamed[i]
				if b.Name != s.Name {
					t.Fatalf("variant %d: batch %q vs stream %q", i, b.Name, s.Name)
				}
				if b.Parsed == nil || s.Parsed == nil {
					t.Fatalf("%s: Parsed not populated (batch %v, stream %v)",
						b.Name, b.Parsed != nil, s.Parsed != nil)
				}
				// The streamed program must be the same decoded program.
				if b.Parsed.Print() != s.Parsed.Print() {
					t.Errorf("%s: batch and stream decode differently", b.Name)
				}

				// Text round trip: render the assembly and re-parse it. The
				// lowered program must match the parsed one exactly.
				asmText, err := b.Assembly()
				if err != nil {
					t.Fatalf("%s: render: %v", b.Name, err)
				}
				reparsed, err := asm.ParseOne(asmText, b.Name)
				if err != nil {
					t.Fatalf("%s: re-parse: %v\n%s", b.Name, err, asmText)
				}
				if b.Parsed.Name != reparsed.Name {
					t.Errorf("%s: lowered name %q, parsed name %q", b.Name, b.Parsed.Name, reparsed.Name)
				}
				if !reflect.DeepEqual(b.Parsed.Insts, reparsed.Insts) {
					t.Errorf("%s: lowered instructions differ from the parsed rendering", b.Name)
				}
				if !reflect.DeepEqual(b.Parsed.Labels, reparsed.Labels) {
					t.Errorf("%s: lowered labels %v, parsed labels %v", b.Name, b.Parsed.Labels, reparsed.Labels)
				}
				if got, want := b.Parsed.Print(), reparsed.Print(); got != want {
					t.Errorf("%s: canonical renderings differ:\n--- lowered\n%s\n--- parsed\n%s", b.Name, got, want)
				}

				// Cache keys: the lowered and re-parsed programs must hash
				// identically, or a pre-refactor on-disk cache goes cold.
				kl, err := keyer.Key(b.Parsed)
				if err != nil {
					t.Fatalf("%s: key(lowered): %v", b.Name, err)
				}
				kp, err := keyer.Key(reparsed)
				if err != nil {
					t.Fatalf("%s: key(parsed): %v", b.Name, err)
				}
				if kl != kp {
					t.Errorf("%s: cache key diverges: lowered %s, parsed %s", b.Name, kl, kp)
				}

				// Verifier diagnostics: verifying the decoded form directly
				// must reproduce the text path's findings exactly.
				for _, opt := range []verify.Options{{}, {Recurrences: true}} {
					direct := verify.Program(b.Parsed, b.Name, opt)
					_, viaText := verify.AsmProgram(asmText, b.Name, opt)
					if !reflect.DeepEqual(direct, viaText) {
						t.Errorf("%s (recurrences=%v): diagnostics diverge:\ndirect: %v\ntext:   %v",
							b.Name, opt.Recurrences, direct, viaText)
					}
				}
			}
		})
	}
}

// TestDifferentialFreshVsReusedMachine is the machine-reuse oracle: over
// the first variant of every shipped spec, on every machine (full size and
// /8), with noise off and on, in Sequential, Fork and OpenMP modes, a
// launch on a machine that already ran a different kernel at a different
// frequency with noise and a fault plan armed, and was then Reset, must
// encode byte-identically — MemStats and Counters included — to a launch
// on a freshly built machine. So must the same launch repeated on that
// machine after another Reset, whose warm-up is restored from the
// machine's memo. launcher.Launch, which draws its machine from the
// per-name pool, must agree with them all.
func TestDifferentialFreshVsReusedMachine(t *testing.T) {
	paths, err := filepath.Glob("specs/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the shipped spec library, found %d files", len(paths))
	}
	var kernels []*isa.Program
	for _, path := range paths {
		progs, err := core.GenerateFile(context.Background(), path, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, progs[0].Parsed)
	}
	var names []string
	for _, base := range machine.Names() {
		names = append(names, base, base+"/8")
	}
	ctx := context.Background()
	encode := func(m *launcher.Measurement) string {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	// configure applies an Options value's frequency and noise the way
	// launcher.Launch does.
	configure := func(mach *sim.Machine, opts launcher.Options) {
		if opts.CoreFrequencyGHz > 0 {
			if err := mach.SetCoreFrequency(opts.CoreFrequencyGHz); err != nil {
				t.Fatal(err)
			}
		}
		if !opts.DisableInterrupts {
			if err := mach.SetNoise(sim.DefaultNoise(opts.NoiseSeed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		desc, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := sim.New(desc)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []launcher.Mode{launcher.Sequential, launcher.Fork, launcher.OpenMP} {
			for _, noisy := range []bool{false, true} {
				for ki, kernel := range kernels {
					t.Run(fmt.Sprintf("%s/%s/noise=%v/%s", name, mode, noisy, kernel.Name), func(t *testing.T) {
						opts := launcher.DefaultOptions()
						opts.MachineName, opts.Mode, opts.Cores = name, mode, 2
						opts.ArrayBytes, opts.OuterReps, opts.InnerReps = 8192, 2, 2
						opts.CollectCounters = true
						if noisy {
							opts.DisableInterrupts, opts.NoiseSeed = false, int64(5+ki)
						}

						fresh, err := sim.New(desc)
						if err != nil {
							t.Fatal(err)
						}
						configure(fresh, opts)
						want, err := launcher.LaunchOn(ctx, fresh, kernel, opts)
						if err != nil {
							t.Fatal(err)
						}

						// Dirty the reused machine: another kernel, another
						// frequency, noise on, then a fault plan that would
						// fail every later step if Reset left it armed.
						other := kernels[(ki+1)%len(kernels)]
						if err := reused.SetCoreFrequency(desc.CoreGHz * 0.75); err != nil {
							t.Fatal(err)
						}
						if err := reused.SetNoise(sim.DefaultNoise(99)); err != nil {
							t.Fatal(err)
						}
						dirty := launcher.DefaultOptions()
						dirty.MachineName, dirty.Mode, dirty.Cores = name, launcher.Fork, 2
						dirty.ArrayBytes, dirty.OuterReps, dirty.InnerReps = 16384, 1, 1
						if _, err := launcher.LaunchOn(ctx, reused, other, dirty); err != nil {
							t.Fatal(err)
						}
						reused.SetFaults(faults.New(1).SetRate(faults.PointSimStep, 1), "stale")
						reused.Reset()
						configure(reused, opts)
						got, err := launcher.LaunchOn(ctx, reused, kernel, opts)
						if err != nil {
							t.Fatal(err)
						}
						if g, w := encode(got), encode(want); g != w {
							t.Errorf("reused machine diverges from a fresh one:\nreused %s\nfresh  %s", g, w)
						}

						// The same launch again after a Reset restores its
						// warm-up from the machine's memo instead of
						// simulating it, and must not differ either.
						reused.Reset()
						configure(reused, opts)
						restoredOpts := opts
						restoredOpts.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
						restored, err := launcher.LaunchOn(ctx, reused, kernel, restoredOpts)
						if err != nil {
							t.Fatal(err)
						}
						if hits := restoredOpts.Metrics.SimWarmHits.Value(); hits != 1 {
							t.Errorf("repeated launch restored %d warm-ups from the memo, want 1", hits)
						}
						if g, w := encode(restored), encode(want); g != w {
							t.Errorf("restored warm-up diverges from a fresh machine:\nrestored %s\nfresh    %s", g, w)
						}

						pooled, err := launcher.Launch(ctx, kernel, opts)
						if err != nil {
							t.Fatal(err)
						}
						if g, w := encode(pooled), encode(want); g != w {
							t.Errorf("pooled launch diverges from a fresh machine:\npooled %s\nfresh  %s", g, w)
						}
					})
				}
			}
		}
	}
}
