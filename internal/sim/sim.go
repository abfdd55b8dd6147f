// Package sim ties the core pipeline model (internal/cpu) and the memory
// system (internal/memsim) into a whole simulated machine: multiple cores
// advancing in bounded lock-step quanta over shared L3s and memory
// controllers, DVFS frequency points with a constant-rate TSC, and the
// environmental noise sources (timer interrupts, cold caches) whose
// suppression is MicroLauncher's whole purpose (§4.7).
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"microtools/internal/cpu"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/memsim"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// quantum is the lock-step window in core cycles. Cores never run further
// than this apart, bounding cross-core ordering error on the shared memory
// structures.
const quantum = 64

// NoiseConfig models the "system's global environmental issues" of §4.7:
// periodic timer interrupts that steal cycles and evict cache lines.
// MicroLauncher disables them ("disables interruptions") for measured runs.
type NoiseConfig struct {
	Enabled bool
	Seed    int64
	// IntervalCycles is the mean core-cycle distance between interrupts.
	IntervalCycles int64
	// CostCycles is the stall per interrupt.
	CostCycles int64
	// CacheDisturbFraction of the core's private cache lines are evicted
	// per interrupt.
	CacheDisturbFraction float64
}

// DefaultNoise returns a noise profile that visibly perturbs unprotected
// runs (scaled to the simulator's shortened experiment lengths).
func DefaultNoise(seed int64) NoiseConfig {
	return NoiseConfig{
		Enabled:              true,
		Seed:                 seed,
		IntervalCycles:       40000,
		CostCycles:           6000,
		CacheDisturbFraction: 0.3,
	}
}

// Machine is a live simulated machine instance.
type Machine struct {
	Desc *machine.Machine
	Sys  *memsim.System

	coreGHz float64
	noise   NoiseConfig
	rng     *rand.Rand

	// span is the tracing parent for Run/RunStream spans. The zero Span
	// is the no-op default: untraced machines pay a nil check per Run
	// call and nothing else.
	span obs.Span

	// injector, when non-nil, consults the deterministic fault plan at the
	// faults.PointSimStep boundary before each Run/RunStream batch;
	// faultKey scopes the injection sites to the owning launch.
	injector *faults.Injector
	faultKey string

	// now is the machine's monotonic core-cycle clock. Warm-up traffic and
	// successive runs all advance it, so shared memory-system timestamps
	// (MSHRs, channel queues) never sit in a job's future.
	now int64

	// Live-telemetry handles (SetMetrics) and their local accumulators.
	// The accumulators are plain fields — a Machine is single-goroutine —
	// bumped on the hot paths and flushed to the shared atomic counters
	// by SetMetrics, so the RunOne fast path pays an integer add, not an
	// atomic RMW, per event (and still allocates nothing).
	instsRetired *telemetry.Counter
	poolHits     *telemetry.Counter
	poolMisses   *telemetry.Counter
	mInsts       int64
	mPoolHits    int64
	mPoolMisses  int64

	// pool holds one reusable cpu.Core per hardware core id, created
	// lazily. Run/RunStream Reset pooled cores instead of allocating
	// fresh ones, so the per-repetition simulate path is allocation-free
	// after the first launch of a kernel (see DESIGN.md, Performance).
	// Reset reinitializes every piece of core state, so no timing or
	// architectural state leaks between launches.
	pool []*cpu.Core
	// seen is the duplicate-pin scratch, sized Desc.Cores.
	seen []bool
	// Scratch slices reused across Run/RunStream calls (a Machine is not
	// safe for concurrent use; its shared memory system never was).
	runIRQ    []int64
	runCores  []*cpu.Core
	runActive []bool
}

// New instantiates the machine at its nominal frequency with noise off.
func New(desc *machine.Machine) (*Machine, error) {
	sys, err := desc.NewSystem()
	if err != nil {
		return nil, err
	}
	return &Machine{Desc: desc, Sys: sys, coreGHz: desc.CoreGHz}, nil
}

// Reset returns the machine to the state New built: a reset memory
// system, the clock at zero, the nominal frequency, noise off, and no
// trace span, fault plan or telemetry armed (disarming flushes pending
// counts to the previous owner). The pooled cores and run scratch are
// kept — every job Resets its core anyway — so reuse allocates nothing.
func (m *Machine) Reset() {
	m.Sys.Reset()
	m.now = 0
	m.coreGHz = m.Desc.CoreGHz
	m.noise, m.rng = NoiseConfig{}, nil
	m.span = obs.Span{}
	m.SetFaults(nil, "")
	m.SetMetrics(nil)
	m.resetPins()
}

// SetNoise configures the environmental noise sources. An enabled
// configuration is validated — the interrupt interval must be positive (it
// seeds rand.Int63n inside Run/RunStream), the per-interrupt cost
// non-negative, and the cache disturb fraction within [0, 1] — so a
// malformed caller-constructed NoiseConfig fails here instead of panicking
// mid-measurement. On error the machine's previous noise state is kept.
func (m *Machine) SetNoise(cfg NoiseConfig) error {
	if cfg.Enabled {
		if cfg.IntervalCycles <= 0 {
			return fmt.Errorf("sim: noise interval must be positive (got %d)", cfg.IntervalCycles)
		}
		if cfg.CostCycles < 0 {
			return fmt.Errorf("sim: noise cost must be non-negative (got %d)", cfg.CostCycles)
		}
		if cfg.CacheDisturbFraction < 0 || cfg.CacheDisturbFraction > 1 {
			return fmt.Errorf("sim: cache disturb fraction %g outside [0, 1]", cfg.CacheDisturbFraction)
		}
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		m.rng = nil
	}
	m.noise = cfg
	return nil
}

// SetFaults arms (or, with a nil injector, disarms) deterministic fault
// injection at the machine's stepping boundary: every Run/RunStream batch
// consults the plan at faults.PointSimStep with key "<key>/<program>", so
// a faulted calibration run is a distinct site from a faulted kernel run.
// The launcher threads its Options.Faults through here for the duration
// of one launch.
func (m *Machine) SetFaults(in *faults.Injector, key string) {
	m.injector = in
	m.faultKey = key
}

// checkFault consults the stepping-boundary fault plan for a job batch.
func (m *Machine) checkFault(prog *isa.Program) error {
	if m.injector == nil {
		return nil
	}
	key := prog.Name
	if m.faultKey != "" {
		key = m.faultKey + "/" + prog.Name
	}
	if err := m.injector.Check(faults.PointSimStep, key); err != nil {
		return fmt.Errorf("sim: stepping %s: %w", prog.Name, err)
	}
	return nil
}

// SetMetrics arms (or, with nil, disarms) live telemetry: instructions
// retired and core-pool hit/miss counts accumulate locally and are
// pushed to met's counters on the next SetMetrics call — the launcher
// arms a machine for the duration of one launch and disarms it (which
// flushes) when the launch ends. Accumulated counts from a period with
// no handles armed are discarded rather than attributed to a later
// owner.
func (m *Machine) SetMetrics(met *telemetry.Metrics) {
	m.flushMetrics()
	if met == nil {
		m.instsRetired, m.poolHits, m.poolMisses = nil, nil, nil
		return
	}
	m.instsRetired = met.SimInstsRetired
	m.poolHits = met.SimPoolHits
	m.poolMisses = met.SimPoolMisses
}

// flushMetrics pushes the local accumulators to the armed counters (a
// nil handle drops its count) and zeroes them.
func (m *Machine) flushMetrics() {
	m.instsRetired.Add(m.mInsts)
	m.poolHits.Add(m.mPoolHits)
	m.poolMisses.Add(m.mPoolMisses)
	m.mInsts, m.mPoolHits, m.mPoolMisses = 0, 0, 0
}

// SetTraceSpan parents subsequent Run/RunStream spans under sp. The
// launcher repoints this at each protocol phase (warm-up, calibration,
// each measurement repetition) so simulator spans nest correctly; pass
// the zero Span to stop tracing.
func (m *Machine) SetTraceSpan(sp obs.Span) { m.span = sp }

// SetCoreFrequency moves every core to the given DVFS point. The uncore
// (L3, memory) stays at its own frequency — the split behind Fig. 13.
func (m *Machine) SetCoreFrequency(ghz float64) error {
	if ghz <= 0 {
		return fmt.Errorf("sim: core frequency must be positive")
	}
	m.coreGHz = ghz
	return m.Sys.SetCoreClockRatio(ghz / m.Desc.UncoreGHz)
}

// CoreFrequency returns the active core frequency in GHz.
func (m *Machine) CoreFrequency() float64 { return m.coreGHz }

// Now returns the machine's monotonic clock in core cycles.
func (m *Machine) Now() int64 { return m.now }

// Touch streams the byte range through a core's caches without pipeline
// timing — MicroLauncher's warm-up step ("the instruction and data caches
// are filled with the kernel's data by calling the benchmark function
// once", §4.5).
func (m *Machine) Touch(core int, base uint64, size int64) {
	line := m.Desc.Hierarchy.L1.LineSize
	cycle := m.now
	for off := int64(0); off < size; off += line {
		cycle = m.Sys.Load(core, base+uint64(off), 8, cycle)
	}
	m.now = cycle
}

// Job is one kernel invocation pinned to a core.
type Job struct {
	// Core is the hardware core to run on.
	Core int
	Prog *isa.Program
	// Regs is the initial architectural state (trip count in %rdi, array
	// bases in the argument registers, per §4.4).
	Regs isa.RegFile
	// MaxInsts bounds dynamic instructions (0 = unlimited).
	MaxInsts int64
	// StartCycle delays the job (fork staggering); jobs synchronize on
	// the machine clock.
	StartCycle int64
}

// JobResult reports one finished invocation.
type JobResult struct {
	cpu.Result
	// EAX is the architectural %eax/%rax at exit — the executed iteration
	// count under the §4.4 protocol.
	EAX uint64
	// EndCycle is the machine cycle at which the job finished.
	EndCycle int64
}

// core returns the pooled cpu.Core for a hardware core id, creating it on
// first use. Pooled cores are fully reinitialized by Reset, so reuse across
// Run/RunStream calls cannot leak state between launches.
func (m *Machine) core(id int) *cpu.Core {
	if m.pool == nil {
		m.pool = make([]*cpu.Core, m.Desc.Cores)
	}
	c := m.pool[id]
	if c == nil {
		c = cpu.NewCore(id, m.Desc.Arch, m.Sys)
		m.pool[id] = c
		m.mPoolMisses++
	} else {
		m.mPoolHits++
	}
	return c
}

// claimPin marks a hardware core as taken for the current call and reports
// whether it was already claimed. The scratch is cleared by resetPins.
func (m *Machine) claimPin(core int) bool {
	if m.seen == nil {
		m.seen = make([]bool, m.Desc.Cores)
	}
	if m.seen[core] {
		return false
	}
	m.seen[core] = true
	return true
}

func (m *Machine) resetPins() {
	for i := range m.seen {
		m.seen[i] = false
	}
}

// Run executes the jobs concurrently in lock-step quanta and returns their
// results in job order. Jobs on the same core are rejected.
func (m *Machine) Run(jobs []Job) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	// Fast path: a single quiet job needs no lock-step windowing.
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
	if m.span.Active() {
		sp := m.span.Child("sim.run").Int("jobs", int64(len(jobs)))
		startCycle := m.now
		defer func() { sp.Cycles(startCycle, m.now).End() }()
	}
	results := make([]JobResult, len(jobs))
	if err := m.lockstep(jobs, "job", func(slot int, r JobResult) *Job {
		results[slot] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// RunOne is Run for a single job. A quiet (noise-free) job runs on the
// machine's pooled core without any per-call allocation — this is the
// launcher's per-repetition unit of work (BenchmarkRunOne gates it at 0
// allocs/op).
func (m *Machine) RunOne(job Job) (JobResult, error) {
	if m.noise.Enabled {
		// Noisy runs need the lock-step IRQ windowing of the general path.
		res, err := m.Run([]Job{job})
		if err != nil {
			return JobResult{}, err
		}
		return res[0], nil
	}
	if err := m.checkFault(job.Prog); err != nil {
		return JobResult{}, err
	}
	if m.span.Active() {
		sp := m.span.Child("sim.run").Int("jobs", 1)
		startCycle := m.now
		defer func() { sp.Cycles(startCycle, m.now).End() }()
	}
	if job.Core < 0 || job.Core >= m.Desc.Cores {
		return JobResult{}, fmt.Errorf("sim: job 0 pinned to core %d of %d", job.Core, m.Desc.Cores)
	}
	c := m.core(job.Core)
	if err := c.Reset(job.Prog, &job.Regs, m.now+job.StartCycle, job.MaxInsts); err != nil {
		return JobResult{}, err
	}
	if _, err := c.Step(math.MaxInt64); err != nil {
		return JobResult{}, fmt.Errorf("sim: job 0: %w", err)
	}
	res := JobResult{Result: c.Result(), EAX: c.Reg(isa.RAX), EndCycle: c.Cycle()}
	m.mInsts += res.Insts
	if res.EndCycle > m.now {
		m.now = res.EndCycle
	}
	return res, nil
}

// StreamResult is one completed job of a job stream.
type StreamResult struct {
	Slot int
	JobResult
}

// RunStream executes an open-ended stream of jobs: the initial jobs run
// concurrently (one per slot, each pinned to its core), and whenever a slot
// finishes, next(slot, result) may return a follow-on job for that slot
// (started on the slot's core at its finishing cycle plus the job's
// StartCycle) or nil to retire the slot. Results come back in completion
// order. This is how work-queue runtimes (OpenMP schedule(dynamic)) are
// simulated without serializing the queue; Run is the same lock-step loop
// with every slot retired after its first job.
func (m *Machine) RunStream(initial []Job, next func(slot int, r JobResult) *Job) ([]StreamResult, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("sim: no initial jobs")
	}
	if err := m.checkFault(initial[0].Prog); err != nil {
		return nil, err
	}
	if m.span.Active() {
		sp := m.span.Child("sim.runstream").Int("slots", int64(len(initial)))
		startCycle := m.now
		defer func() { sp.Cycles(startCycle, m.now).End() }()
	}
	var results []StreamResult
	if err := m.lockstep(initial, "slot", func(slot int, r JobResult) *Job {
		results = append(results, StreamResult{Slot: slot, JobResult: r})
		return next(slot, r)
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// lockstep is the multi-core scheduler behind Run and RunStream. It pins
// jobs[i] to slot i's core (validating the pins, resetting the pooled
// cores and drawing each slot's first interrupt) and steps every live
// slot in quantum-cycle windows, so no core runs more than a quantum
// ahead of another on the shared memory system. When slot i's job
// finishes, done(i, result) returns the slot's follow-on job, which must
// stay on the slot's core and starts at the finishing cycle plus its
// StartCycle, or nil to retire the slot. noun ("job" or "slot") names a
// slot in error texts.
func (m *Machine) lockstep(jobs []Job, noun string, done func(slot int, r JobResult) *Job) error {
	m.resetPins()
	if cap(m.runCores) < len(jobs) {
		m.runCores = make([]*cpu.Core, len(jobs))
		m.runIRQ = make([]int64, len(jobs))
		m.runActive = make([]bool, len(jobs))
	}
	cores := m.runCores[:len(jobs)]
	nextIRQ := m.runIRQ[:len(jobs)]
	active := m.runActive[:len(jobs)]
	for i := range jobs {
		j := &jobs[i]
		if j.Core < 0 || j.Core >= m.Desc.Cores {
			return fmt.Errorf("sim: %s %d pinned to core %d of %d", noun, i, j.Core, m.Desc.Cores)
		}
		if !m.claimPin(j.Core) {
			return fmt.Errorf("sim: two %ss pinned to core %d", noun, j.Core)
		}
		start := m.now + j.StartCycle
		cores[i] = m.core(j.Core)
		if err := cores[i].Reset(j.Prog, &j.Regs, start, j.MaxInsts); err != nil {
			return err
		}
		active[i] = true
		if m.noise.Enabled {
			nextIRQ[i] = start + m.noise.IntervalCycles/2 + m.rng.Int63n(m.noise.IntervalCycles)
		}
	}

	remaining := len(jobs)
	limit := m.now + quantum
	for remaining > 0 {
		progressed := false
		for i, c := range cores {
			if !active[i] {
				continue
			}
			if m.noise.Enabled && c.Cycle() >= nextIRQ[i] {
				c.Stall(m.noise.CostCycles)
				m.Sys.DisturbCore(jobs[i].Core, m.rng, m.noise.CacheDisturbFraction)
				nextIRQ[i] = c.Cycle() + m.noise.IntervalCycles/2 + m.rng.Int63n(m.noise.IntervalCycles)
			}
			before := c.Cycle()
			finished, err := c.Step(limit)
			if err != nil {
				return fmt.Errorf("sim: %s %d: %w", noun, i, err)
			}
			if !finished {
				if c.Cycle() != before {
					progressed = true
				}
				continue
			}
			progressed = true
			res := JobResult{Result: c.Result(), EAX: c.Reg(isa.RAX), EndCycle: c.Cycle()}
			m.mInsts += res.Insts
			if res.EndCycle > m.now {
				m.now = res.EndCycle
			}
			nj := done(i, res)
			if nj == nil {
				active[i] = false
				remaining--
				continue
			}
			if nj.Core != jobs[i].Core {
				return fmt.Errorf("sim: %s %d follow-on job moved core %d -> %d", noun, i, jobs[i].Core, nj.Core)
			}
			if err := c.Reset(nj.Prog, &nj.Regs, res.EndCycle+nj.StartCycle, nj.MaxInsts); err != nil {
				return err
			}
		}
		if !progressed {
			// Either every live slot is waiting for the window to reach
			// its frontier (staggered or far-future starts: jump the
			// limit there instead of crawling one empty quantum at a
			// time — bit-identical, since no slot steps, stalls or takes
			// an interrupt in the skipped windows), or a slot allowed to
			// run below the limit neither advanced nor finished and the
			// scheduler is stuck.
			minFront := int64(math.MaxInt64)
			for i, c := range cores {
				if active[i] && c.Cycle() < minFront {
					minFront = c.Cycle()
				}
			}
			if minFront < limit || minFront == math.MaxInt64 {
				return fmt.Errorf("sim: scheduler made no progress")
			}
			limit = minFront
		}
		limit += quantum
		if limit < 0 {
			return fmt.Errorf("sim: cycle counter overflow")
		}
	}
	return nil
}
