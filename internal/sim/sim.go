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
	"slices"

	"microtools/internal/cpu"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/memsim"
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

	// now is the machine's monotonic core-cycle clock. Warm-up traffic and
	// successive runs all advance it, so shared memory-system timestamps
	// (MSHRs, channel queues) never sit in a job's future.
	now int64

	// counts are plain fields bumped on the hot paths: a Machine is
	// single-goroutine, so an event costs an integer add.
	counts Counts

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

	// warm is Warm's memo. Reset keeps it: it describes what a warm-up
	// leaves on a pristine machine, not the machine's current state.
	warm warmMemo
}

// warmMemo is Warm's single entry: the pins, array bases and byte count
// of the last warm-up that started on a pristine machine, the memory
// system it left and the clock it ended at. The machine description is
// fixed per Machine, and Restore checks the memory system's
// configuration, clock ratio included, so together they are the whole
// key.
type warmMemo struct {
	// key lists, per pin, the core, its array count and the array bases.
	key   []uint64
	bytes int64
	now   int64
	snap  memsim.Snapshot
}

// matches reports whether a warm-up of these arrays is the memoized one.
func (w *warmMemo) matches(pins []int, arrays [][]uint64, bytes int64) bool {
	if bytes != w.bytes {
		return false
	}
	k := w.key
	for i, core := range pins {
		n := len(arrays[i])
		if len(k) < 2+n || k[0] != uint64(core) || k[1] != uint64(n) || !slices.Equal(k[2:2+n], arrays[i]) {
			return false
		}
		k = k[2+n:]
	}
	return len(k) == 0
}

// record makes these arrays the memo's key, reusing its buffer.
func (w *warmMemo) record(pins []int, arrays [][]uint64, bytes int64) {
	w.key = w.key[:0]
	for i, core := range pins {
		w.key = append(w.key, uint64(core), uint64(len(arrays[i])))
		w.key = append(w.key, arrays[i]...)
	}
	w.bytes = bytes
}

// Counts are a machine's cumulative event counts since New or Reset.
type Counts struct {
	// InstsRetired sums the instructions of every finished job.
	InstsRetired int64
	// PoolHits counts jobs that reset a pooled core; PoolMisses those
	// that had to build one.
	PoolHits, PoolMisses int64
	// WarmHits counts warm-ups restored from the memo; WarmMisses those
	// simulated load by load.
	WarmHits, WarmMisses int64
}

// Counts returns the machine's event counts.
func (m *Machine) Counts() Counts { return m.counts }

// New instantiates the machine at its nominal frequency with noise off.
func New(desc *machine.Machine) (*Machine, error) {
	sys, err := desc.NewSystem()
	if err != nil {
		return nil, err
	}
	return &Machine{Desc: desc, Sys: sys, coreGHz: desc.CoreGHz}, nil
}

// Reset returns the machine to the state New built: a reset memory
// system, the clock at zero, the nominal frequency, noise off and zero
// counts. The pooled cores and run scratch are kept — every job Resets
// its core anyway — so reuse allocates nothing.
func (m *Machine) Reset() {
	m.Sys.Reset()
	m.now = 0
	m.coreGHz = m.Desc.CoreGHz
	m.noise, m.rng = NoiseConfig{}, nil
	m.counts = Counts{}
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
// timing, one load per line starting at the machine clock.
func (m *Machine) Touch(core int, base uint64, size int64) {
	line := m.Desc.Hierarchy.L1.LineSize
	cycle := m.now
	for off := int64(0); off < size; off += line {
		cycle = m.Sys.Load(core, base+uint64(off), 8, cycle)
	}
	m.now = cycle
}

// Warm is MicroLauncher's warm-up step ("the instruction and data caches
// are filled with the kernel's data by calling the benchmark function
// once", §4.5): it Touches bytes of every array arrays[i] on core pins[i],
// in order. The state that leaves depends only on the machine, its clock
// ratio, the pins, the bases and bytes — noise acts only inside Run and
// RunStream — so a warm-up that starts on a pristine machine (the
// clock at zero and the memory system as New or Reset left it) is
// memoized: the next such warm-up of the same arrays restores the
// memoized memory system and clock instead of simulating the loads.
// Every other warm-up simulates them.
func (m *Machine) Warm(pins []int, arrays [][]uint64, bytes int64) {
	pristine := m.now == 0 && m.Sys.Pristine()
	if pristine && m.warm.matches(pins, arrays, bytes) && m.Sys.Restore(&m.warm.snap) {
		m.now = m.warm.now
		m.counts.WarmHits++
		return
	}
	m.counts.WarmMisses++
	for i, core := range pins {
		for _, base := range arrays[i] {
			m.Touch(core, base, bytes)
		}
	}
	if pristine {
		m.warm.record(pins, arrays, bytes)
		m.Sys.Capture(&m.warm.snap)
		m.warm.now = m.now
	}
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
		m.counts.PoolMisses++
	} else {
		m.counts.PoolHits++
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
	m.counts.InstsRetired += res.Insts
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
			m.counts.InstsRetired += res.Insts
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
