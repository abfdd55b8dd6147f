package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/memsim"
	"microtools/internal/obs"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// sweepSpec expands to four variants (unroll 1..4) of a simple streaming
// load kernel.
const sweepSpec = `
<kernel name="campaign_k">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
  </instruction>
  <unrolling><min>1</min><max>4</max></unrolling>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction><register><phyName>%eax</phyName></register><increment>1</increment><not_affected_unroll/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

func quickLaunch() launcher.Options {
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 1 << 12
	opts.InnerReps = 1
	opts.OuterReps = 1
	opts.MaxInstructions = 5_000
	return opts
}

// metered returns l recording into a fresh instrument set over reg; the
// tests arm a campaign's metrics, injector and plan on its launch options.
func metered(l launcher.Options, reg *telemetry.Registry) launcher.Options {
	l.Metrics = telemetry.NewMetrics(reg)
	return l
}

// faulted returns l with the fault plan in armed.
func faulted(l launcher.Options, in *faults.Injector) launcher.Options {
	l.Faults = in
	return l
}

// planned returns l with a copy of the adaptive plan p armed.
func planned(l launcher.Options, p launcher.Plan) launcher.Options {
	l.Adaptive = &p
	return l
}

// source is one way variants enter the engine.
type source struct {
	name string
	run  func(ctx context.Context, opts Options) (*Result, error)
}

// sources lists both entry points over sweepSpec's family: streamed out of
// the generator (Run) and as a materialized program list (RunPrograms).
// Tests that range over them pin the two to the same behaviour.
var sources = []source{
	{"spec", func(ctx context.Context, opts Options) (*Result, error) {
		return Run(ctx, strings.NewReader(sweepSpec), core.GenerateOptions{}, opts)
	}},
	{"programs", func(ctx context.Context, opts Options) (*Result, error) {
		progs, err := core.GenerateString(ctx, sweepSpec, core.GenerateOptions{})
		if err != nil {
			return &Result{}, err
		}
		return RunPrograms(ctx, progs, opts)
	}},
}

func runSweep(t *testing.T, opts Options) *Result {
	t.Helper()
	return runSource(t, sources[0], opts)
}

func runSource(t *testing.T, src source, opts Options) *Result {
	t.Helper()
	res, err := src.run(context.Background(), opts)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return res
}

func csvOf(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := launcher.WriteCSV(&buf, res.Measurements()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunMeasuresEveryVariant(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			res := runSource(t, src, Options{Launch: quickLaunch()})
			if res.Emitted != 4 {
				t.Fatalf("emitted %d variants, want 4", res.Emitted)
			}
			if len(res.Results) != 4 || res.Launches != 4 || res.Failures != 0 {
				t.Fatalf("results=%d launches=%d failures=%d, want 4/4/0",
					len(res.Results), res.Launches, res.Failures)
			}
			for i, r := range res.Results {
				if r.Index != i {
					t.Errorf("result %d has index %d: not in generation order", i, r.Index)
				}
				if r.Measurement == nil || r.CacheHit {
					t.Errorf("variant %s: measurement=%v cacheHit=%v", r.Name, r.Measurement, r.CacheHit)
				}
				if m := r.Measurement; m != nil && (m.Value <= 0 || m.Iterations == 0) {
					t.Errorf("variant %s: measurement = %+v", r.Name, m)
				}
			}
		})
	}
}

func TestSerialParallelAndWarmRunsBitIdentical(t *testing.T) {
	var specCSV string
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			cache := NewMemoryCache()
			serial := runSource(t, src, Options{Launch: quickLaunch(), Workers: 1, Cache: cache})
			parallel := runSource(t, src, Options{Launch: quickLaunch(), Workers: 8})
			warm := runSource(t, src, Options{Launch: quickLaunch(), Workers: 8, Cache: cache})

			serialCSV := csvOf(t, serial)
			if parallelCSV := csvOf(t, parallel); parallelCSV != serialCSV {
				t.Errorf("parallel run differs from serial:\n%s\nvs\n%s", parallelCSV, serialCSV)
			}
			if warmCSV := csvOf(t, warm); warmCSV != serialCSV {
				t.Errorf("cache-warm run differs from serial:\n%s\nvs\n%s", warmCSV, serialCSV)
			}
			if warm.Launches != 0 || warm.CacheHits != 4 {
				t.Errorf("warm run: %d launches, %d hits, want 0/4", warm.Launches, warm.CacheHits)
			}
			// Both entry points measure the same family identically.
			if specCSV == "" {
				specCSV = serialCSV
			} else if serialCSV != specCSV {
				t.Errorf("%s source differs from the spec source:\n%s\nvs\n%s", src.name, serialCSV, specCSV)
			}
		})
	}
}

func TestWarmCachePerformsZeroLaunches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "measurements.jsonl")

	cold, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	coldCounters := telemetry.NewRegistry()
	coldRes := runSweep(t, Options{Launch: metered(quickLaunch(), coldCounters), Cache: cold})
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if got := coldCounters.Counter("campaign.launches").Value(); got != 4 {
		t.Fatalf("cold run: %d launches, want 4", got)
	}
	if got := coldCounters.Counter("campaign.cache.misses").Value(); got != 4 {
		t.Fatalf("cold run: %d misses, want 4", got)
	}

	// Re-open the on-disk store: a fresh process resuming the campaign.
	warm, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Len() != 4 {
		t.Fatalf("reloaded cache has %d entries, want 4", warm.Len())
	}
	warmCounters := telemetry.NewRegistry()
	warmRes := runSweep(t, Options{Launch: metered(quickLaunch(), warmCounters), Cache: warm})
	if got := warmCounters.Counter("campaign.launches").Value(); got != 0 {
		t.Errorf("warm run performed %d launches, want 0", got)
	}
	if got := warmCounters.Counter("campaign.cache.hits").Value(); got != 4 {
		t.Errorf("warm run: %d hits, want 4", got)
	}
	if warmCSV, coldCSV := csvOf(t, warmRes), csvOf(t, coldRes); warmCSV != coldCSV {
		t.Errorf("warm CSV differs from cold:\n%s\nvs\n%s", warmCSV, coldCSV)
	}
}

// TestScreenedStudyWarmRerunPerformsZeroLaunches: a screened study —
// generate, core.ScreenTopK, RunPrograms — keeps the campaign's cache, so
// rerunning it on the same cache file replays every survivor bit-identically
// without a launch.
func TestScreenedStudyWarmRerunPerformsZeroLaunches(t *testing.T) {
	progs, err := core.GenerateFile(context.Background(), "../../specs/loadstore_movaps.xml", core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	launch := quickLaunch()
	kept, err := core.ScreenTopK(context.Background(), progs, launch.MachineName, launch.ArrayBytes, int(launch.ElementBytes), 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	study := func() *Result {
		t.Helper()
		cache, err := OpenCache(path)
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		res, err := RunPrograms(context.Background(), kept, Options{Launch: launch, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := study(), study()
	if cold.Launches != len(kept) || warm.Launches != 0 || warm.CacheHits != len(kept) {
		t.Errorf("cold %d launches, warm %d launches / %d hits; want %d, 0 / %d",
			cold.Launches, warm.Launches, warm.CacheHits, len(kept), len(kept))
	}
	if warmCSV, coldCSV := csvOf(t, warm), csvOf(t, cold); warmCSV != coldCSV {
		t.Errorf("warm screened study differs from cold:\n%s\nvs\n%s", warmCSV, coldCSV)
	}
}

func TestCorruptedCacheDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "measurements.jsonl")

	cold, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(t, Options{Launch: quickLaunch(), Cache: cold})
	cold.Close()

	// Corrupt the store: truncate mid-line and append garbage — the torn
	// write of a killed process.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:len(data)/2], []byte("{not json\nxx")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenCache(path)
	if err != nil {
		t.Fatalf("corrupted cache must open, got %v", err)
	}
	defer warm.Close()
	if warm.Len() >= 4 {
		t.Fatalf("corrupted cache kept %d entries, want fewer than 4", warm.Len())
	}
	counters := telemetry.NewRegistry()
	res := runSweep(t, Options{Launch: metered(quickLaunch(), counters), Cache: warm})
	if res.Failures != 0 || len(res.Results) != 4 {
		t.Fatalf("campaign over corrupted cache: %d results, %d failures", len(res.Results), res.Failures)
	}
	if hits, misses := counters.Counter("campaign.cache.hits").Value(), counters.Counter("campaign.cache.misses").Value(); hits+misses != 4 || misses == 0 {
		t.Errorf("hits=%d misses=%d: corrupt entries must degrade to misses", hits, misses)
	}
}

// TestCacheTornTailDoesNotSwallowNextPut: a killed process can leave the
// last line without its newline. The next Put must still land on a line
// of its own, so the new entry (and the intact ones before the tear)
// survive a reopen.
func TestCacheTornTailDoesNotSwallowNextPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	torn := `{"key":"intact","measurement":{"Kernel":"a","Value":1,"Summary":{"N":1}}}` + "\n" +
		`{"key":"torn","measurement":{"Kern`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("torn cache loaded %d entries, want 1", c.Len())
	}
	if _, err := c.Put("fresh", &launcher.Measurement{Kernel: "b", Value: 2, Summary: stats.Summary{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, key := range []string{"intact", "fresh"} {
		if _, ok := reopened.Get(key); !ok {
			t.Errorf("entry %q lost after a Put behind a torn line", key)
		}
	}
	if _, ok := reopened.Get("torn"); ok {
		t.Error("the torn entry loaded")
	}
}

func TestCancellationReturnsPartialResultsPromptly(t *testing.T) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := src.run(ctx, Options{
				Launch:  quickLaunch(),
				Workers: 1,
				launch: func(lctx context.Context, prog *isa.Program, opts launcher.Options) (*launcher.Measurement, error) {
					// Cancel as the first variant finishes measuring: the
					// campaign must stop within one variant and keep the
					// finished result.
					m, merr := launcher.Launch(lctx, prog, opts)
					if merr == nil && m != nil {
						cancel()
					}
					return m, merr
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("canceled campaign must still return its partial results")
			}
			if len(res.Results) == 0 || len(res.Results) >= 4 {
				t.Errorf("canceled campaign completed %d of 4 variants, want partial", len(res.Results))
			}
			for _, r := range res.Results {
				if r.Err != nil {
					t.Errorf("variant %s recorded spurious error %v after cancellation", r.Name, r.Err)
				}
			}
		})
	}
}

func TestFaultIsolationAggregatesFailures(t *testing.T) {
	bang := errors.New("injected launch fault")
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			res, err := src.run(context.Background(), Options{
				Launch:  quickLaunch(),
				Workers: 2,
				launch: func(ctx context.Context, prog *isa.Program, opts launcher.Options) (*launcher.Measurement, error) {
					if strings.Contains(prog.Name, "_u2_") {
						return nil, bang
					}
					return launcher.Launch(ctx, prog, opts)
				},
			})
			if err == nil {
				t.Fatal("campaign with a failing variant must return an error")
			}
			var agg *Error
			if !errors.As(err, &agg) {
				t.Fatalf("err %T is not *campaign.Error: %v", err, err)
			}
			if len(agg.Failed) != 1 || agg.Total != 4 {
				t.Fatalf("aggregate lists %d/%d failures, want 1/4: %v", len(agg.Failed), agg.Total, err)
			}
			if !errors.Is(err, bang) {
				t.Error("aggregate error does not unwrap to the injected fault")
			}
			if !strings.Contains(err.Error(), agg.Failed[0].Name) {
				t.Errorf("aggregate error %q does not name the failed variant", err)
			}
			if got := len(res.Measurements()); got != 3 {
				t.Errorf("fault isolation: %d measurements, want the 3 healthy variants", got)
			}
		})
	}
}

// TestRunProgramsIsolatesBrokenProgram: a program that cannot be lowered
// fails alone — the healthy programs around it are still measured, and the
// aggregate pinpoints it by name and list position.
func TestRunProgramsIsolatesBrokenProgram(t *testing.T) {
	progs, err := core.GenerateString(context.Background(), sweepSpec, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// No kernel and no parsed form: Lowered fails.
	progs = append([]codegen.Program{progs[0], {Name: "broken_variant"}}, progs[1:]...)
	res, err := RunPrograms(context.Background(), progs, Options{Launch: quickLaunch(), Workers: 2})
	var agg *Error
	if !errors.As(err, &agg) {
		t.Fatalf("error %T is not *campaign.Error: %v", err, err)
	}
	if len(agg.Failed) != 1 || agg.Failed[0].Name != "broken_variant" || agg.Failed[0].Index != 1 {
		t.Fatalf("aggregate %v does not pinpoint the broken variant", err)
	}
	var ve *VariantError
	if !errors.As(err, &ve) {
		t.Error("aggregate does not unwrap to a *VariantError")
	}
	if len(res.Results) != len(progs) || len(res.Measurements()) != len(progs)-1 {
		t.Errorf("%d results, %d measurements, want %d/%d", len(res.Results), len(res.Measurements()), len(progs), len(progs)-1)
	}
	if _, err := RunPrograms(context.Background(), nil, Options{Launch: quickLaunch()}); !errors.Is(err, ErrNoVariants) {
		t.Errorf("empty program list: err = %v, want ErrNoVariants", err)
	}
}

// lineWriter records each Write under a lock, as a shared stderr would
// take them.
type lineWriter struct {
	mu     sync.Mutex
	writes []string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestVerboseLinesNameTheirKernel: two kernels launched concurrently into
// one Verbose writer write every protocol line whole, in one write, and
// led by the name of the kernel it belongs to.
func TestVerboseLinesNameTheirKernel(t *testing.T) {
	progs, err := core.GenerateString(context.Background(), sweepSpec, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	progs = progs[:2]
	var w lineWriter
	launch := quickLaunch()
	launch.Verbose = &w
	if _, err := RunPrograms(context.Background(), progs, Options{Launch: launch, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	for _, line := range w.writes {
		name, msg, ok := strings.Cut(line, ": ")
		if !ok || strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("write %q is not one whole line led by a kernel name", line)
		}
		if !strings.HasPrefix(msg, "warmup done") && !strings.HasPrefix(msg, "calibrated overhead") && !strings.HasPrefix(msg, "rep ") {
			t.Fatalf("line %q is not a protocol line", line)
		}
		lines[name]++
	}
	if len(lines) != 2 || lines[progs[0].Name] == 0 || lines[progs[0].Name] != lines[progs[1].Name] {
		t.Fatalf("lines per kernel %v, want the same count for %s and %s", lines, progs[0].Name, progs[1].Name)
	}
}

func TestFailFastStopsEarly(t *testing.T) {
	bang := errors.New("injected launch fault")
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var mu sync.Mutex
			launched := 0
			res, err := src.run(context.Background(), Options{
				Launch:   quickLaunch(),
				Workers:  1,
				FailFast: true,
				launch: func(ctx context.Context, prog *isa.Program, opts launcher.Options) (*launcher.Measurement, error) {
					mu.Lock()
					launched++
					mu.Unlock()
					return nil, bang
				},
			})
			if err == nil {
				t.Fatal("fail-fast campaign must surface the fault")
			}
			if res.Failures != 1 {
				t.Errorf("fail-fast recorded %d failures, want 1", res.Failures)
			}
			mu.Lock()
			defer mu.Unlock()
			if launched >= 4 {
				t.Errorf("fail-fast still launched all %d variants", launched)
			}
		})
	}
}

func TestKeyNormalizationAndSensitivity(t *testing.T) {
	opts := quickLaunch()
	prog, err := core.LoadKernel(kernelAsm("k", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	// Formatting-only differences hash identically: the key is over the
	// canonical re-print of the decoded program.
	reparsed, err := core.LoadKernel(prog.Print(), "")
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Key(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(reparsed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("canonicalized kernel hashes differently")
	}
	// A measurement-relevant option change must change the key.
	changed := opts
	changed.ArrayBytes *= 2
	if k3, _ := Key(prog, changed); k3 == k1 {
		t.Error("changing ArrayBytes did not change the key")
	}
	// The machine model is part of the key.
	other := opts
	other.MachineName = "sandybridge-dual/8"
	if k4, _ := Key(prog, other); k4 == k1 {
		t.Error("changing the machine did not change the key")
	}
	// Output plumbing must not be: a Verbose writer or tracer is not
	// measurement-relevant.
	noisy := opts
	noisy.Verbose = os.Stderr
	noisy.Tracer = obs.New()
	if k5, _ := Key(prog, noisy); k5 != k1 {
		t.Error("attaching Verbose/Tracer changed the key")
	}
	// A different kernel must miss.
	prog2, err := core.LoadKernel(kernelAsm("k", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	if k6, _ := Key(prog2, opts); k6 == k1 {
		t.Error("different kernels share a key")
	}
}

// kernelAsm renders a minimal measurable kernel with `n` loads.
func kernelAsm(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".globl %s\n%s:\n.L0:\n", name, name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tmovss %d(%%rdi), %%xmm0\n", 4*i)
	}
	b.WriteString("\taddl $1, %eax\n\tsubq $1, %rsi\n\tjge .L0\n\tret\n")
	return b.String()
}

func TestRunFileAndEmptySpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.xml")
	if err := os.WriteFile(path, []byte(sweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunFile(context.Background(), path, core.GenerateOptions{}, Options{Launch: quickLaunch()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 4 {
		t.Errorf("RunFile emitted %d variants, want 4", res.Emitted)
	}
	if _, err := RunFile(context.Background(), filepath.Join(dir, "missing.xml"), core.GenerateOptions{}, Options{}); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestTracerRecordsCampaignSpans(t *testing.T) {
	tr := obs.New()
	cache := NewMemoryCache()
	launch := quickLaunch()
	launch.Tracer = tr
	runSweep(t, Options{Launch: launch, Cache: cache})
	runSweep(t, Options{Launch: launch, Cache: cache})
	names := map[string]int{}
	for _, r := range tr.Records() {
		names[r.Name]++
	}
	if names["campaign"] != 2 {
		t.Errorf("%d campaign spans, want 2", names["campaign"])
	}
	if names["variant"] != 8 {
		t.Errorf("%d variant spans, want 8", names["variant"])
	}
	if names["cache.miss"] != 4 || names["cache.hit"] != 4 {
		t.Errorf("cache spans hit=%d miss=%d, want 4/4", names["cache.hit"], names["cache.miss"])
	}
}

// TestKeyerMatchesStreamedRecipe pins the Keyer's single-buffer digest to
// the original streamed recipe (hash each NUL-terminated part separately):
// a pre-refactor on-disk cache must stay warm, so the bytes under SHA-256
// cannot change. The recipe is reimplemented here verbatim as the oracle.
func TestKeyerMatchesStreamedRecipe(t *testing.T) {
	opts := quickLaunch()
	prog, err := core.LoadKernel(kernelAsm("k", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	scrub := opts
	scrub.Verbose = nil
	scrub.Tracer = nil
	scrub.Faults = nil
	scrub.Metrics = nil
	optJSON, err := json.Marshal(scrub)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := machine.ByName(opts.MachineName)
	if err != nil {
		t.Fatal(err)
	}
	machJSON, err := json.Marshal(struct {
		Name              string
		Cores             int
		Sockets           int
		CoreGHz           float64
		UncoreGHz         float64
		RefGHz            float64
		Hierarchy         memsim.HierarchyConfig
		FrequencyStepsGHz []float64
	}{desc.Name, desc.Cores, desc.Sockets, desc.CoreGHz, desc.UncoreGHz,
		desc.RefGHz, desc.Hierarchy, desc.FrequencyStepsGHz})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, part := range [][]byte{[]byte(keyVersion), []byte(prog.Print()), optJSON, machJSON} {
		h.Write(part)
		h.Write([]byte{0})
	}
	want := hex.EncodeToString(h.Sum(nil))

	got, err := Key(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Keyer digest %s diverged from the streamed recipe %s: on-disk caches would go cold", got, want)
	}
	// And the reusable Keyer agrees with the one-shot form.
	ky, err := NewKeyer(opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ky.Key(prog)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatalf("Keyer.Key %s diverged from the streamed recipe %s", again, want)
	}
}
