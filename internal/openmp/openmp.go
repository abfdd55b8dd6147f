// Package openmp models the OpenMP work-sharing runtime of §5.2.3: a
// parallel-for region that statically chunks a trip count across pinned
// threads, pays a fork cost to wake the team, runs the chunks concurrently
// on the simulated cores, and joins at a barrier.
//
// The model captures what the paper's Figs. 17-18 and Table 2 measure: the
// parallel setup overhead that swamps unrolling gains ("Unrolling achieves
// a significant performance gain for the sequential version. It is not true
// in the OpenMP setting due to the overhead of the parallel setup") and the
// array-size-dependent speedup (cache-resident chunks scale; RAM-resident
// chunks hit the shared memory bandwidth).
package openmp

import (
	"fmt"

	"microtools/internal/cpu"
	"microtools/internal/sim"
)

// Config parameterizes the runtime model. Costs are in core cycles.
type Config struct {
	Threads int
	// ForkCycles is the master's cost to wake the team (libgomp-style
	// team startup, roughly constant).
	ForkCycles int64
	// WakeupPerThread staggers thread starts: thread t begins
	// ForkCycles + t*WakeupPerThread after region entry.
	WakeupPerThread int64
	// JoinCycles is the barrier cost at region exit, paid once plus a
	// small per-thread term (tree barrier).
	JoinCycles    int64
	JoinPerThread int64
	// StaticChunking selects schedule(static) (the default, one
	// contiguous chunk per thread). When false, ParallelFor runs
	// schedule(dynamic): chunks of ChunkElements are handed to the
	// earliest-free thread, each paying DispatchCycles for the shared
	// work-queue access.
	StaticChunking bool
	ChunkElements  int64
	DispatchCycles int64
}

// DefaultConfig mirrors a libgomp static-schedule parallel-for on a busy
// system: tens of microseconds of region overhead.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:         threads,
		ForkCycles:      12000,
		WakeupPerThread: 2500,
		JoinCycles:      4000,
		JoinPerThread:   800,
		StaticChunking:  true,
		ChunkElements:   1024,
		DispatchCycles:  150,
	}
}

// MakeJob builds the simulation job for one thread's chunk:
// [chunkStart, chunkStart+chunkLen) in elements.
type MakeJob func(thread int, chunkStart, chunkLen int64) (sim.Job, error)

// Result reports one parallel region execution.
type Result struct {
	// Result is the team's pipeline counters: every thread invocation
	// folded in with cpu.Result.Add. Its Cycles is the summed per-thread
	// busy time (the CPI denominator for simulated-PMU counter export;
	// RegionCycles is wall time), and its Truncated reports any thread
	// hitting its instruction budget.
	cpu.Result
	// RegionCycles is the wall time of the whole region (fork + slowest
	// thread + join), in core cycles.
	RegionCycles int64
	// ThreadCycles are the per-thread busy times.
	ThreadCycles []int64
	// Iterations is the summed loop-iteration count across threads (the
	// team-wide %eax total under the §4.4 protocol).
	Iterations uint64
}

// ParallelFor executes one parallel-for region with the configured
// schedule.
func ParallelFor(m *sim.Machine, cfg Config, pins []int, trip int64, mk MakeJob) (*Result, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("openmp: need at least one thread")
	}
	if len(pins) < cfg.Threads {
		return nil, fmt.Errorf("openmp: %d threads but %d pinned cores", cfg.Threads, len(pins))
	}
	if trip <= 0 {
		return nil, fmt.Errorf("openmp: non-positive trip count %d", trip)
	}
	if !cfg.StaticChunking {
		return parallelForDynamic(m, cfg, pins, trip, mk)
	}
	t := int64(cfg.Threads)
	jobs := make([]sim.Job, 0, cfg.Threads)
	// Static chunking: floor(n/T) per thread, the first n%T threads get
	// one extra element.
	base := trip / t
	extra := trip % t
	start := int64(0)
	for i := 0; i < cfg.Threads; i++ {
		chunk := base
		if int64(i) < extra {
			chunk++
		}
		if chunk == 0 {
			continue
		}
		job, err := mk(i, start, chunk)
		if err != nil {
			return nil, err
		}
		job.StartCycle = cfg.ForkCycles + int64(i)*cfg.WakeupPerThread
		jobs = append(jobs, job)
		start += chunk
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("openmp: empty team")
	}
	entry := m.Now()
	rs, err := m.Run(jobs)
	if err != nil {
		return nil, err
	}
	res := &Result{ThreadCycles: make([]int64, len(rs))}
	var maxEnd int64
	for i, r := range rs {
		res.ThreadCycles[i] = r.Cycles
		res.Iterations += r.EAX
		res.Add(r.Result)
		if r.EndCycle > maxEnd {
			maxEnd = r.EndCycle
		}
	}
	// Region wall time: from region entry (machine clock at submission,
	// which the fork offsets are relative to) to the last thread's
	// completion, plus the join barrier.
	res.RegionCycles = (maxEnd - entry) + cfg.JoinCycles + int64(len(rs))*cfg.JoinPerThread
	return res, nil
}

// parallelForDynamic models schedule(dynamic): fixed-size chunks are handed
// out from a shared queue to whichever thread frees up first, each grab
// paying DispatchCycles. The simulation streams follow-on chunks onto
// finishing cores (sim.RunStream), so threads overlap and rebalance around
// perturbed peers — exactly what static scheduling cannot do.
func parallelForDynamic(m *sim.Machine, cfg Config, pins []int, trip int64, mk MakeJob) (*Result, error) {
	chunkSize := cfg.ChunkElements
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	dispatch := cfg.DispatchCycles
	res := &Result{ThreadCycles: make([]int64, cfg.Threads)}

	nextStart := int64(0)
	grab := func() (start, n int64, ok bool) {
		if nextStart >= trip {
			return 0, 0, false
		}
		start = nextStart
		n = chunkSize
		if start+n > trip {
			n = trip - start
		}
		nextStart += n
		return start, n, true
	}

	entry := m.Now()
	initial := make([]sim.Job, 0, cfg.Threads)
	slots := 0
	for t := 0; t < cfg.Threads; t++ {
		start, n, ok := grab()
		if !ok {
			break
		}
		job, err := mk(t, start, n)
		if err != nil {
			return nil, err
		}
		job.Core = pins[t]
		job.StartCycle = cfg.ForkCycles + int64(t)*cfg.WakeupPerThread + dispatch
		initial = append(initial, job)
		slots++
	}
	if slots == 0 {
		return nil, fmt.Errorf("openmp: empty team")
	}
	var nextErr error
	rs, err := m.RunStream(initial, func(slot int, r sim.JobResult) *sim.Job {
		start, n, ok := grab()
		if !ok || nextErr != nil {
			return nil
		}
		job, err := mk(slot, start, n)
		if err != nil {
			nextErr = err
			return nil
		}
		job.Core = pins[slot]
		job.StartCycle = dispatch
		return &job
	})
	if err != nil {
		return nil, err
	}
	if nextErr != nil {
		return nil, nextErr
	}
	var last int64
	for _, r := range rs {
		res.ThreadCycles[r.Slot] += r.Cycles
		res.Iterations += r.EAX
		res.Add(r.Result)
		if r.EndCycle > last {
			last = r.EndCycle
		}
	}
	res.RegionCycles = (last - entry) + cfg.JoinCycles + int64(cfg.Threads)*cfg.JoinPerThread
	return res, nil
}
