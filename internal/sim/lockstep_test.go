package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"microtools/internal/cpu"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/obs"
)

// The two functions below are reference oracles for the shared lock-step
// scheduler: the separate Run and RunStream loops the simulator had before
// both became lockstep, kept verbatim apart from the per-call scratch and
// the trace span (which carries no simulated state).

// referenceRun is the earlier Run: one lock-step loop over a fixed batch.
func referenceRun(m *Machine, jobs []Job) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	if len(jobs) == 1 && !m.noise.Enabled {
		r, err := m.RunOne(jobs[0])
		if err != nil {
			return nil, err
		}
		return []JobResult{r}, nil
	}
	if err := m.checkFault(jobs[0].Prog); err != nil {
		return nil, err
	}
	m.resetPins()
	cores := make([]*cpu.Core, len(jobs))
	nextIRQ := make([]int64, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if j.Core < 0 || j.Core >= m.Desc.Cores {
			return nil, fmt.Errorf("sim: job %d pinned to core %d of %d", i, j.Core, m.Desc.Cores)
		}
		if !m.claimPin(j.Core) {
			return nil, fmt.Errorf("sim: two jobs pinned to core %d", j.Core)
		}
		start := m.now + j.StartCycle
		cores[i] = m.core(j.Core)
		if err := cores[i].Reset(j.Prog, &j.Regs, start, j.MaxInsts); err != nil {
			return nil, err
		}
		if m.noise.Enabled {
			nextIRQ[i] = start + m.noise.IntervalCycles/2 +
				m.rng.Int63n(m.noise.IntervalCycles)
		}
	}

	results := make([]JobResult, len(jobs))
	finished := make([]bool, len(jobs))
	remaining := len(jobs)
	limit := m.now + quantum
	for remaining > 0 {
		progressed := false
		minFront := int64(math.MaxInt64)
		for i, c := range cores {
			if finished[i] {
				continue
			}
			if m.noise.Enabled && c.Cycle() >= nextIRQ[i] {
				c.Stall(m.noise.CostCycles)
				m.Sys.DisturbCore(jobs[i].Core, m.rng, m.noise.CacheDisturbFraction)
				nextIRQ[i] = c.Cycle() + m.noise.IntervalCycles/2 +
					m.rng.Int63n(m.noise.IntervalCycles)
			}
			before := c.Cycle()
			done, err := c.Step(limit)
			if err != nil {
				return nil, fmt.Errorf("sim: job %d: %w", i, err)
			}
			if done {
				finished[i] = true
				remaining--
				results[i] = JobResult{
					Result:   c.Result(),
					EAX:      c.Reg(isa.RAX),
					EndCycle: c.Cycle(),
				}
				m.mInsts += results[i].Insts
				if c.Cycle() > m.now {
					m.now = c.Cycle()
				}
				progressed = true
				continue
			}
			if c.Cycle() != before {
				progressed = true
			}
			if c.Cycle() < minFront {
				minFront = c.Cycle()
			}
		}
		if !progressed {
			if minFront < limit || minFront == math.MaxInt64 {
				return nil, fmt.Errorf("sim: scheduler made no progress")
			}
			limit = minFront
		}
		limit += quantum
		if limit < 0 {
			return nil, fmt.Errorf("sim: cycle counter overflow")
		}
	}
	return results, nil
}

// referenceRunStream is the earlier RunStream: its own lock-step loop with
// follow-on jobs.
func referenceRunStream(m *Machine, initial []Job, next func(slot int, r JobResult) *Job) ([]StreamResult, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("sim: no initial jobs")
	}
	if err := m.checkFault(initial[0].Prog); err != nil {
		return nil, err
	}
	m.resetPins()
	cores := make([]*cpu.Core, len(initial))
	nextIRQ := make([]int64, len(initial))
	active := make([]bool, len(initial))
	pinned := make([]int, len(initial))
	for i := range initial {
		j := initial[i]
		if j.Core < 0 || j.Core >= m.Desc.Cores {
			return nil, fmt.Errorf("sim: slot %d pinned to core %d of %d", i, j.Core, m.Desc.Cores)
		}
		if !m.claimPin(j.Core) {
			return nil, fmt.Errorf("sim: two slots pinned to core %d", j.Core)
		}
		pinned[i] = j.Core
		start := m.now + j.StartCycle
		cores[i] = m.core(j.Core)
		if err := cores[i].Reset(j.Prog, &j.Regs, start, j.MaxInsts); err != nil {
			return nil, err
		}
		active[i] = true
		if m.noise.Enabled {
			nextIRQ[i] = start + m.noise.IntervalCycles/2 + m.rng.Int63n(m.noise.IntervalCycles)
		}
	}

	var results []StreamResult
	remaining := len(initial)
	limit := m.now + quantum
	for remaining > 0 {
		progressed := false
		for i, c := range cores {
			if !active[i] {
				continue
			}
			if m.noise.Enabled && c.Cycle() >= nextIRQ[i] {
				c.Stall(m.noise.CostCycles)
				m.Sys.DisturbCore(pinned[i], m.rng, m.noise.CacheDisturbFraction)
				nextIRQ[i] = c.Cycle() + m.noise.IntervalCycles/2 + m.rng.Int63n(m.noise.IntervalCycles)
			}
			before := c.Cycle()
			done, err := c.Step(limit)
			if err != nil {
				return nil, fmt.Errorf("sim: slot %d: %w", i, err)
			}
			if !done {
				if c.Cycle() != before {
					progressed = true
				}
				continue
			}
			progressed = true
			res := JobResult{Result: c.Result(), EAX: c.Reg(isa.RAX), EndCycle: c.Cycle()}
			m.mInsts += res.Insts
			results = append(results, StreamResult{Slot: i, JobResult: res})
			if res.EndCycle > m.now {
				m.now = res.EndCycle
			}
			nj := next(i, res)
			if nj == nil {
				active[i] = false
				remaining--
				continue
			}
			if nj.Core != pinned[i] {
				return nil, fmt.Errorf("sim: slot %d follow-on job moved core %d -> %d", i, pinned[i], nj.Core)
			}
			start := res.EndCycle + nj.StartCycle
			if err := c.Reset(nj.Prog, &nj.Regs, start, nj.MaxInsts); err != nil {
				return nil, err
			}
		}
		if !progressed {
			minFront := int64(math.MaxInt64)
			for i, c := range cores {
				if active[i] && c.Cycle() < minFront {
					minFront = c.Cycle()
				}
			}
			if minFront < limit || minFront == math.MaxInt64 {
				return nil, fmt.Errorf("sim: scheduler made no progress")
			}
			limit = minFront
		}
		limit += quantum
		if limit < 0 {
			return nil, fmt.Errorf("sim: cycle counter overflow")
		}
	}
	return results, nil
}

// schedCall is one randomized Run or RunStream call: the initial batch
// and, for a stream, each slot's follow-on jobs in hand-out order.
type schedCall struct {
	stream   bool
	jobs     []Job
	followOn [][]Job
}

// nextFunc hands out each slot's follow-on jobs in order, then retires the
// slot; every call gets its own cursor, so two runs of one call see the
// same stream.
func (c schedCall) nextFunc() func(slot int, r JobResult) *Job {
	handed := make([]int, len(c.jobs))
	return func(slot int, _ JobResult) *Job {
		if handed[slot] == len(c.followOn[slot]) {
			return nil
		}
		j := c.followOn[slot][handed[slot]]
		handed[slot]++
		return &j
	}
}

// schedScenario draws a noise setting and a sequence of calls covering
// 1–8 slots, staggered and far-future starts, instruction budgets that
// truncate, follow-on chains, bad and duplicate pins and migrating
// follow-ons.
func schedScenario(t *testing.T, seed int64, cores int) (NoiseConfig, []schedCall) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	progs := make([]*isa.Program, 4)
	for u := range progs {
		progs[u] = parseKernel(t, u+1, fmt.Sprintf("k%d", u+1))
	}
	var noise NoiseConfig
	if rng.Intn(2) == 0 {
		noise = NoiseConfig{
			Enabled:              true,
			Seed:                 seed,
			IntervalCycles:       500 + rng.Int63n(3000),
			CostCycles:           rng.Int63n(400),
			CacheDisturbFraction: 0.3,
		}
	}
	start := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return farFuture
		case 1, 2:
			return rng.Int63n(20000)
		}
		return 0
	}
	mkJob := func(core, slot int) Job {
		j := jobFor(progs[rng.Intn(len(progs))], core, uint64(16*(20+rng.Intn(200))), uint64(0x100000*(slot+1)))
		j.StartCycle = start()
		if rng.Intn(5) == 0 {
			j.MaxInsts = 1 + rng.Int63n(800)
		}
		return j
	}
	calls := make([]schedCall, 3)
	for c := range calls {
		n := 1 + rng.Intn(8)
		pins := rng.Perm(cores)[:n]
		call := schedCall{stream: rng.Intn(2) == 0, jobs: make([]Job, n), followOn: make([][]Job, n)}
		for i, core := range pins {
			call.jobs[i] = mkJob(core, i)
			if call.stream {
				for k := rng.Intn(4); k > 0; k-- {
					call.followOn[i] = append(call.followOn[i], mkJob(core, i))
				}
			}
		}
		switch rng.Intn(12) {
		case 0:
			call.jobs[rng.Intn(n)].Core = -1
		case 1:
			call.jobs[rng.Intn(n)].Core = cores
		case 2:
			if n > 1 {
				call.jobs[n-1].Core = call.jobs[0].Core
			}
		case 3:
			if s := rng.Intn(n); call.stream && len(call.followOn[s]) > 0 {
				call.followOn[s][0].Core = (call.jobs[s].Core + 1) % cores
			}
		}
		calls[c] = call
	}
	return noise, calls
}

// farFuture is a start far beyond any window the scheduler could crawl
// to one quantum at a time: reaching it needs the fast-forward.
const farFuture = int64(1) << 40

// schedOutcome is everything one call leaves observable: its results or
// error text, and the machine state the next call starts from.
type schedOutcome struct {
	Run      []JobResult
	Stream   []StreamResult
	Err      string
	Now      int64
	Insts    int64
	NextDraw int64
}

func observe(m *Machine, run []JobResult, stream []StreamResult, err error) schedOutcome {
	o := schedOutcome{Run: run, Stream: stream, Now: m.Now(), Insts: m.mInsts}
	if err != nil {
		o.Err = err.Error()
	}
	if m.rng != nil {
		o.NextDraw = m.rng.Int63()
	}
	return o
}

// shapes names what one call exercised, so the test can check that its
// scenarios reach every case they are meant to cover.
func (o schedOutcome) shapes(call schedCall, noisy bool) []string {
	var s []string
	add := func(ok bool, name string) {
		if ok {
			s = append(s, name)
		}
	}
	add(len(call.jobs) == 1, "1 slot")
	add(len(call.jobs) == 8, "8 slots")
	add(noisy, "noise on")
	add(!noisy, "noise off")
	add(call.stream && len(o.Stream) > len(call.jobs), "follow-on chain")
	add(strings.Contains(o.Err, " of "), "pin out of range")
	add(strings.Contains(o.Err, "two "), "duplicate pin")
	add(strings.Contains(o.Err, "moved core"), "core migration")
	var results []JobResult
	results = append(results, o.Run...)
	for _, r := range o.Stream {
		results = append(results, r.JobResult)
	}
	for _, r := range results {
		add(r.Truncated, "truncated")
		add(r.IRQStalls > 0, "interrupted")
		add(r.EndCycle >= farFuture, "far-future start")
	}
	return s
}

// TestLockstepMatchesReferenceLoops is the differential test for the
// shared scheduler: randomized call sequences on two identical machines,
// one through Run/RunStream and one through the reference loops, must
// agree call by call on results, error texts, the machine clock, the
// memory-system counters, the retired-instruction tally and the next
// noise draw.
func TestLockstepMatchesReferenceLoops(t *testing.T) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	seeds := int64(48)
	if testing.Short() {
		seeds = 12
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= seeds; seed++ {
		noise, seq := schedScenario(t, seed, desc.Cores)
		newMachine := func() *Machine {
			m, err := New(desc)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetNoise(noise); err != nil {
				t.Fatal(err)
			}
			return m
		}
		got, want := newMachine(), newMachine()
		for c, call := range seq {
			var outs [2]schedOutcome
			within(t, 30*time.Second, func() {
				if call.stream {
					rs, err := got.RunStream(call.jobs, call.nextFunc())
					outs[0] = observe(got, nil, rs, err)
					rs, err = referenceRunStream(want, call.jobs, call.nextFunc())
					outs[1] = observe(want, nil, rs, err)
				} else {
					rs, err := got.Run(call.jobs)
					outs[0] = observe(got, rs, nil, err)
					rs, err = referenceRun(want, call.jobs)
					outs[1] = observe(want, rs, nil, err)
				}
			})
			for _, s := range outs[1].shapes(call, noise.Enabled) {
				seen[s] = true
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Fatalf("seed %d call %d (stream %v, %d slots): lockstep diverged from the reference loop:\ngot  %+v\nwant %+v",
					seed, c, call.stream, len(call.jobs), outs[0], outs[1])
			}
			if g, w := got.Sys.Stats(), want.Sys.Stats(); g != w {
				t.Fatalf("seed %d call %d: memory-system counters diverged:\ngot  %+v\nwant %+v", seed, c, g, w)
			}
		}
	}
	for _, s := range []string{"1 slot", "8 slots", "noise on", "noise off", "follow-on chain",
		"pin out of range", "duplicate pin", "core migration", "truncated", "interrupted", "far-future start"} {
		if !seen[s] {
			t.Errorf("no scenario reached %q: the differential test does not cover it", s)
		}
	}
}

// TestEntryPointSpansAndFaults: around the shared loop each entry point
// keeps its own span (sim.run sized in jobs, sim.runstream in slots), and
// a call the fault plan fails returns before recording any span.
func TestEntryPointSpansAndFaults(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	prog := parseKernel(t, 2, "k")
	jobs := []Job{
		jobFor(prog, 0, 16*50, 0x100000),
		jobFor(prog, 1, 16*50, 0x200000),
		jobFor(prog, 2, 16*50, 0x300000),
	}
	retire := func(int, JobResult) *Job { return nil }
	tr := obs.New()
	m.SetTraceSpan(tr.Start("root"))
	if _, err := m.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunStream(jobs[:2], retire); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name, key string
		n         int64
	}{{"sim.run", "jobs", 3}, {"sim.runstream", "slots", 2}} {
		recs := tr.FindAll(want.name)
		if len(recs) != 1 || len(recs[0].Attrs) != 1 || !recs[0].HasCycles ||
			recs[0].Attrs[0].Key != want.key || recs[0].Attrs[0].Value.Int != want.n {
			t.Errorf("%s spans = %+v, want one with %s=%d and cycle bounds", want.name, recs, want.key, want.n)
		}
	}

	m.SetFaults(faults.New(1).SetRate(faults.PointSimStep, 1).SetClass(faults.ClassPermanent), "f")
	spans := len(tr.Records())
	if _, err := m.Run(jobs); err == nil || !strings.Contains(err.Error(), "sim: stepping k:") {
		t.Errorf("faulted Run: err %v, want the stepping fault", err)
	}
	if _, err := m.RunStream(jobs, retire); err == nil || !strings.Contains(err.Error(), "sim: stepping k:") {
		t.Errorf("faulted RunStream: err %v, want the stepping fault", err)
	}
	if got := len(tr.Records()); got != spans {
		t.Errorf("faulted calls recorded %d spans", got-spans)
	}
}
