package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"microtools/internal/memsim"
)

// TestNoopTracer: a nil tracer and the zero Span accept the full API
// without recording or panicking.
func TestNoopTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root")
	if sp.Active() {
		t.Fatal("nil tracer produced an active span")
	}
	child := sp.Child("child").Str("k", "v").Int("n", 1).Float("f", 2.5).Cycles(0, 10)
	child.End()
	sp.End()
	if recs := tr.Records(); recs != nil {
		t.Fatalf("nil tracer recorded %d spans", len(recs))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote JSONL: %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer chrome output not JSON: %v", err)
	}
}

// TestNoopSpanAllocs: the disabled tracing path must not allocate — the
// launcher hot loops call these on every repetition.
func TestNoopSpanAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("launch")
		c := sp.Child("rep").Int("rep", 3).Float("value", 1.5)
		c.Cycles(0, 100)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op tracing allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSpanHierarchy: parent links and attributes land in the records.
func TestSpanHierarchy(t *testing.T) {
	tr := New()
	root := tr.Start("launch").Str("kernel", "k0")
	warm := root.Child("warmup")
	warm.Cycles(0, 500).End()
	meas := root.Child("measure")
	rep := meas.Child("rep").Int("rep", 0)
	rep.End()
	meas.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["warmup"].ParentID != byName["launch"].ID {
		t.Errorf("warmup parent = %d, want launch %d", byName["warmup"].ParentID, byName["launch"].ID)
	}
	if byName["rep"].ParentID != byName["measure"].ID {
		t.Errorf("rep parent = %d, want measure %d", byName["rep"].ParentID, byName["measure"].ID)
	}
	if !byName["warmup"].HasCycles || byName["warmup"].CycleEnd != 500 {
		t.Errorf("warmup cycles not recorded: %+v", byName["warmup"])
	}
	if byName["launch"].Attrs[0].Key != "kernel" || byName["launch"].Attrs[0].Value.Str != "k0" {
		t.Errorf("launch attrs = %+v", byName["launch"].Attrs)
	}
	if byName["launch"].End.Before(byName["launch"].Start) {
		t.Error("span end before start")
	}
}

// TestConcurrentTracer: parallel goroutines share a tracer (campaign
// launches do) without loss; run with -race.
func TestConcurrentTracer(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const n, per = 8, 50
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Start("launch").Int("i", int64(i))
				sp.Child("rep").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Records()); got != n*per*2 {
		t.Fatalf("recorded %d spans, want %d", got, n*per*2)
	}
}

// TestWriteJSONL: one parseable object per line carrying the span fields.
func TestWriteJSONL(t *testing.T) {
	tr := New()
	root := tr.Start("generate")
	root.Child("xmlspec.parse").Int("kernels", 2).End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0]["name"] != "generate" || lines[1]["name"] != "xmlspec.parse" {
		t.Errorf("names = %v, %v", lines[0]["name"], lines[1]["name"])
	}
	if lines[1]["parent"] != float64(1) {
		t.Errorf("child parent = %v, want 1", lines[1]["parent"])
	}
}

// TestWriteChromeTrace: the export is a valid trace_event document with
// complete events and nesting-compatible timestamps.
func TestWriteChromeTrace(t *testing.T) {
	tr := New()
	root := tr.Start("launch")
	w := root.Child("warmup")
	w.End()
	m := root.Child("measure").Cycles(100, 900)
	m.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	var rootEv, measEv *struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		if ev.Ph != "X" {
			t.Errorf("event %s ph = %q, want X", ev.Name, ev.Ph)
		}
		switch ev.Name {
		case "launch":
			rootEv = ev
		case "measure":
			measEv = ev
		}
	}
	if rootEv == nil || measEv == nil {
		t.Fatal("missing launch/measure events")
	}
	if measEv.Tid != rootEv.Tid {
		t.Errorf("child tid %d != root tid %d (must share a track to nest)", measEv.Tid, rootEv.Tid)
	}
	if measEv.Ts < rootEv.Ts || measEv.Ts+measEv.Dur > rootEv.Ts+rootEv.Dur+1e-3 {
		t.Errorf("child [%f,%f] not contained in parent [%f,%f]",
			measEv.Ts, measEv.Ts+measEv.Dur, rootEv.Ts, rootEv.Ts+rootEv.Dur)
	}
	if measEv.Args["cycle_start"] != float64(100) || measEv.Args["cycle_end"] != float64(900) {
		t.Errorf("measure args = %v", measEv.Args)
	}
}

// TestWriteFileFormat dispatches on the .jsonl suffix.
func TestWriteFileFormat(t *testing.T) {
	tr := New()
	tr.Start("x").End()
	var a, b bytes.Buffer
	if err := tr.WriteFileFormat(&a, "trace.jsonl"); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFileFormat(&b, "trace.json"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(a.String()), `{"id":1`) {
		t.Errorf("jsonl output = %q", a.String())
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Errorf("chrome output = %q", b.String())
	}
}

// TestCountersArithmetic: the derived metrics, and 0 (never NaN) on an
// empty snapshot.
func TestCountersArithmetic(t *testing.T) {
	a := Counters{
		Mem:                 memsim.Stats{Loads: 1000, L1Hits: 990, L1Misses: 10, L2Hits: 8, L2Misses: 2},
		RetiredInsts:        4000,
		Branches:            500,
		BranchMispredicts:   5,
		FrontendStallCycles: 40,
		CoreCycles:          2000,
	}
	if got := a.CPI(); got != 0.5 {
		t.Errorf("CPI = %f, want 0.5", got)
	}
	if got := a.IPC(); got != 2 {
		t.Errorf("IPC = %f, want 2", got)
	}
	if got := a.L1HitRate(); got != 0.99 {
		t.Errorf("L1HitRate = %f, want 0.99", got)
	}
	if got := a.L1MPKI(); got != 2.5 {
		t.Errorf("L1MPKI = %f, want 2.5", got)
	}
	if got := a.MispredictRate(); got != 0.01 {
		t.Errorf("MispredictRate = %f, want 0.01", got)
	}
	var zero Counters
	for name, v := range map[string]float64{
		"CPI": zero.CPI(), "IPC": zero.IPC(), "L1HitRate": zero.L1HitRate(),
		"L1MPKI": zero.L1MPKI(), "MispredictRate": zero.MispredictRate(),
	} {
		if v != 0 {
			t.Errorf("zero counters %s = %f, want 0 (never NaN)", name, v)
		}
	}
}

// TestCheckInvariants: a consistent snapshot passes, a corrupted one is
// rejected with a description of the broken identity.
func TestCheckInvariants(t *testing.T) {
	good := Counters{
		Mem: memsim.Stats{
			Loads: 100, Stores: 20, LineSplits: 2,
			L1Hits: 100, L1Misses: 22,
			MSHRMerges: 2,
			L2Hits:     12, L2Misses: 8,
			Prefetches: 4,
			L3Hits:     10, L3Misses: 2,
			MemAccesses: 2, BytesFromMemory: 128,
		},
		RetiredInsts: 400, Branches: 50, BranchMispredicts: 3, CoreCycles: 900,
	}
	if err := good.CheckInvariants(64); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
	bad := good
	bad.Mem.L1Hits++
	if err := bad.CheckInvariants(64); err == nil {
		t.Fatal("corrupted L1 counters accepted")
	}
	bad = good
	bad.Mem.MemAccesses++
	if err := bad.CheckInvariants(64); err == nil {
		t.Fatal("corrupted memory-access counter accepted")
	}
	bad = good
	bad.BranchMispredicts = bad.Branches + 1
	if err := bad.CheckInvariants(64); err == nil {
		t.Fatal("mispredicts > branches accepted")
	}
}
