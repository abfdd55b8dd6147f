package launcher

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"microtools/internal/cpu"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/memsim"
	"microtools/internal/obs"
	"microtools/internal/openmp"
	"microtools/internal/power"
	"microtools/internal/sim"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// Measurement is the launcher's result for one kernel under one
// configuration — one row of the §4.3 CSV output.
type Measurement struct {
	Kernel string
	Mode   Mode
	Cores  int
	// Value is the reported number: time per iteration (or per call) in
	// the configured unit, after the configured statistic across outer
	// repetitions.
	Value float64
	Unit  TimeUnit
	// Summary holds the distribution across outer repetitions.
	Summary stats.Summary
	// Stability condenses Summary into the per-variant confidence
	// signals (mean, CV, RCIW) campaign results and the measurement
	// cache carry. It is a pure function of Summary (stats.StabilityOf),
	// so entries cached before the field existed reproduce it exactly.
	Stability stats.Stability
	// Iterations is the per-call loop iteration count the kernel returned
	// in %eax (§4.4).
	Iterations uint64
	// ValuePerElement is Value normalized by the elements each loop
	// iteration consumes (trip/iterations), the fair metric when ranking
	// variants with different unroll factors. Zero when unavailable
	// (truncated runs or whole-call reporting).
	ValuePerElement float64
	// OverheadCycles is the calibrated per-call measurement overhead that
	// was subtracted (§4.5).
	OverheadCycles float64
	// StaticBound is internal/dataflow's lower bound for the kernel in
	// Value's unit and per-iteration basis (0 when unavailable). The
	// launcher itself leaves it zero; internal/campaign fills it and
	// asserts the oracle invariant against it behind Options.CheckBounds.
	StaticBound float64
	// Truncated reports that calls stopped at the instruction budget.
	Truncated bool
	// Arrays records the allocated base addresses (for reporting).
	Arrays []uint64
	// MemStats snapshots the memory system counters over the measured
	// portion.
	MemStats memsim.Stats
	// Adaptive records what the adaptive repetition planner did (nil
	// unless Options.Adaptive armed it): the resolved plan, realized
	// repetitions, achieved RCIW and stop reason. omitempty keeps the
	// cache encoding of fixed-budget measurements byte-identical to
	// builds that predate the field.
	Adaptive *AdaptiveOutcome `json:",omitempty"`
	// Counters is the simulated-PMU snapshot over the measured region
	// (nil unless Options.CollectCounters).
	Counters *obs.Counters
	// Energy is the §7 power-model estimate (nil unless requested).
	Energy *power.Estimate
}

// Clone returns a deep copy of m that shares no memory with it. A nil
// slice or pointer stays nil and an empty Arrays stays empty, so the copy
// encodes byte-identically to the original.
func (m *Measurement) Clone() *Measurement {
	c := *m
	c.Arrays = slices.Clone(m.Arrays)
	if m.Adaptive != nil {
		a := *m.Adaptive
		c.Adaptive = &a
	}
	if m.Counters != nil {
		k := *m.Counters
		c.Counters = &k
	}
	if m.Energy != nil {
		e := *m.Energy
		c.Energy = &e
	}
	return &c
}

// NumArraysOf derives how many launcher-provided arrays a kernel consumes:
// the distinct SysV argument registers (beyond %rdi) it uses as memory
// bases. This implements the automatic default for the paper's --nbvectors.
func NumArraysOf(p *isa.Program) int {
	used := map[isa.Reg]bool{}
	for i := range p.Insts {
		if mem, _, ok := p.Insts[i].MemOperand(); ok {
			if mem.Base != isa.NoReg {
				used[mem.Base] = true
			}
			if mem.Index != isa.NoReg {
				used[mem.Index] = true
			}
		}
	}
	n := 0
	for _, r := range isa.ArgRegs[1:] {
		if used[r] {
			n++
		}
	}
	return n
}

// calibrationProgram returns the "empty benchmark" used to measure call
// overhead. One shared instance serves every launch so its µop decode is
// cached once per decode signature rather than redone per Launch call.
var calibrationProgram = sync.OnceValue(func() *isa.Program {
	return mustResolve(&isa.Program{
		Name: "__calibrate",
		Insts: []isa.Inst{
			{Op: isa.XOR, A: isa.NewReg(isa.RAX), B: isa.NewReg(isa.RAX), NOps: 2},
			{Op: isa.RET},
		},
		Labels: map[string]int{},
	})
})

// mustResolve resolves a statically-known program; the inputs are compile-
// time constants, so a resolution failure is a programming error.
func mustResolve(p *isa.Program) *isa.Program {
	if err := p.Resolve(); err != nil {
		panic(err)
	}
	return p
}

// pinOrder returns the core ids fork processes are pinned to. With socket
// spreading, processes round-robin across sockets (the typical HPC layout
// the §5.2.1 saturation study assumes).
func pinOrder(m *machine.Machine, n int, spread bool) ([]int, error) {
	if n > m.Cores {
		return nil, fmt.Errorf("launcher: %d processes on a %d-core machine", n, m.Cores)
	}
	out := make([]int, n)
	if !spread || m.Sockets <= 1 {
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	perSock := m.Cores / m.Sockets
	for i := range out {
		out[i] = (i%m.Sockets)*perSock + i/m.Sockets
	}
	return out, nil
}

// ctxErr reports ctx's cancellation state; a nil ctx never cancels (the
// non-cancellable legacy path — library callers should thread a real one).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// machines pools simulated machines per machine name (string →
// *sync.Pool of *sim.Machine). Building a machine allocates every cache
// tag, LRU and dirty array — by far the largest per-launch cost — so
// Launch resets a pooled one instead. A machine is owned by exactly one
// launch between Get and Put, keeping sim.Machine single-owner.
var machines sync.Map

// acquireMachine returns a machine for name in its freshly built state:
// a pooled one after Reset, or a new one when the pool is empty.
func acquireMachine(name string) (*sim.Machine, error) {
	if p, ok := machines.Load(name); ok {
		if mach, ok := p.(*sync.Pool).Get().(*sim.Machine); ok {
			mach.Reset()
			return mach, nil
		}
	}
	desc, err := machine.ByName(name)
	if err != nil {
		return nil, err
	}
	return sim.New(desc)
}

// releaseMachine returns a machine to its name's pool.
func releaseMachine(name string, mach *sim.Machine) {
	p, _ := machines.LoadOrStore(name, new(sync.Pool))
	p.(*sync.Pool).Put(mach)
}

// Launch measures one kernel program under the given options. The context
// cancels the protocol between repetitions: a canceled launch returns
// ctx.Err() without a measurement. The simulated machine comes from a
// per-name pool and is reset to its freshly built state first, so a
// measurement is bit-identical to one taken on a new machine.
func Launch(ctx context.Context, prog *isa.Program, opts Options) (*Measurement, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	mach, err := acquireMachine(opts.MachineName)
	if err != nil {
		return nil, err
	}
	defer releaseMachine(opts.MachineName, mach)
	if opts.CoreFrequencyGHz > 0 {
		if err := mach.SetCoreFrequency(opts.CoreFrequencyGHz); err != nil {
			return nil, err
		}
	}
	if !opts.DisableInterrupts {
		if err := mach.SetNoise(sim.DefaultNoise(opts.NoiseSeed)); err != nil {
			return nil, err
		}
	}
	return launchOn(ctx, mach, prog, opts)
}

// launchOn runs the protocol against a configured machine; Launch and
// LaunchOn are its two entry points.
func launchOn(ctx context.Context, mach *sim.Machine, prog *isa.Program, opts Options) (*Measurement, error) {
	desc := mach.Desc
	// Callers check opts.Verbose before logging, so a quiet launch never
	// boxes the arguments.
	logf := func(format string, args ...any) {
		fmt.Fprintf(opts.Verbose, format+"\n", args...)
	}

	root := opts.Tracer.Start("launch").
		Str("kernel", prog.Name).
		Str("mode", opts.Mode.String()).
		Str("machine", opts.MachineName)
	defer root.End()
	defer mach.SetTraceSpan(obs.Span{})
	// Live telemetry: resolve the histogram handles once (nil handles
	// no-op) and arm the machine's simulator counters for the duration of
	// this launch — disarming flushes its locally accumulated counts.
	// Durations are timed by chaining laps (one clock read per
	// observation, not two): the end of one timed section is the start of
	// the next, which keeps enabled telemetry inside its <2% overhead
	// budget on the protocol-dominated launch path.
	var repHist, calHist *telemetry.Histogram
	var tick telemetry.Tick
	if opts.Metrics != nil {
		repHist = opts.Metrics.RepSeconds
		calHist = opts.Metrics.CalibrateSeconds
		mach.SetMetrics(opts.Metrics)
		defer mach.SetMetrics(nil)
	}
	if opts.Faults != nil {
		mach.SetFaults(opts.Faults, prog.Name)
		defer mach.SetFaults(nil, "")
	}

	nArrays := opts.NBVectors
	if nArrays == 0 {
		nArrays = NumArraysOf(prog)
	}
	if nArrays > len(isa.ArgRegs)-1 {
		return nil, fmt.Errorf("launcher: kernel needs %d arrays, max %d", nArrays, len(isa.ArgRegs)-1)
	}

	nCores := 1
	var pins []int
	var err error
	switch opts.Mode {
	case Sequential:
		if opts.PinCore < 0 || opts.PinCore >= desc.Cores {
			return nil, fmt.Errorf("launcher: pin core %d outside machine (%d cores)", opts.PinCore, desc.Cores)
		}
		pins = []int{opts.PinCore}
	case Fork, OpenMP:
		nCores = opts.Cores
		pins, err = pinOrder(desc, nCores, opts.SpreadSockets)
		if err != nil {
			return nil, err
		}
	}

	// Allocate the data arrays: per process for Fork (independent
	// processes), shared for Sequential/OpenMP.
	space := memsim.NewAddressSpace()
	allocSet := func() ([]uint64, error) {
		bases := make([]uint64, nArrays)
		for i := range bases {
			var off int64
			if i < len(opts.Alignments) {
				off = opts.Alignments[i]
			}
			b, err := space.Alloc(opts.ArrayBytes, opts.AlignWindow, off)
			if err != nil {
				return nil, err
			}
			bases[i] = b
		}
		return bases, nil
	}

	procArrays := make([][]uint64, nCores)
	if opts.Mode == Fork {
		for i := range procArrays {
			if procArrays[i], err = allocSet(); err != nil {
				return nil, err
			}
		}
	} else {
		shared, err := allocSet()
		if err != nil {
			return nil, err
		}
		for i := range procArrays {
			procArrays[i] = shared
		}
	}

	trip := opts.TripElements
	if trip == 0 {
		trip = opts.ArrayBytes / opts.ElementBytes
	}
	if trip <= 0 {
		return nil, fmt.Errorf("launcher: non-positive trip count")
	}

	regsFor := func(bases []uint64, n int64, baseShift uint64) isa.RegFile {
		var rf isa.RegFile
		if opts.TripExact {
			rf.Set(isa.RDI, uint64(n))
		} else {
			rf.Set(isa.RDI, uint64(n-1))
		}
		for i, b := range bases {
			rf.Set(isa.ArgRegs[1+i], b+baseShift)
		}
		return rf
	}

	// Warm-up (§4.5): touch every array's footprint on its core.
	if opts.Warmup {
		wsp := root.Child("warmup")
		wstart := mach.Now()
		mach.Warm(pins, procArrays, opts.ArrayBytes)
		wsp.Cycles(wstart, mach.Now()).End()
		if opts.Verbose != nil {
			logf("warmup done at machine cycle %d", mach.Now())
		}
	}

	// Calibration (§4.5): time the empty kernel.
	overhead := 0.0
	if opts.Calibrate {
		if calHist != nil {
			tick.Reset()
		}
		csp := root.Child("calibrate")
		cstart := mach.Now()
		mach.SetTraceSpan(csp)
		cal := calibrationProgram()
		var rf isa.RegFile
		res, err := mach.RunOne(sim.Job{Core: pins[0], Prog: cal, Regs: rf})
		if err != nil {
			return nil, err
		}
		overhead = float64(res.Cycles)
		csp.Float("overhead_cycles", overhead).Cycles(cstart, mach.Now()).End()
		if calHist != nil {
			tick.Lap(calHist)
		}
		if opts.Verbose != nil {
			logf("calibrated overhead: %.0f cycles/call", overhead)
		}
	}

	meas := &Measurement{
		Kernel:         prog.Name,
		Mode:           opts.Mode,
		Cores:          nCores,
		Unit:           opts.TimeUnit,
		OverheadCycles: overhead,
	}
	for _, bases := range procArrays[:1] {
		meas.Arrays = append(meas.Arrays, bases...)
	}

	// Measured region: counters are captured as a delta around the loop
	// below, so warm-up and calibration traffic never pollute them (the
	// simulated analogue of nanoBench's counter-read placement).
	memBefore := mach.Sys.Stats()
	// The adaptive plan (when armed) replaces the fixed budget with a
	// [MinReps, MaxReps] window and a per-rep stop rule. Resolving here
	// keeps the shared Options value untouched — campaign workers alias
	// one Plan pointer across goroutines.
	var adaptive *adaptiveState
	maxReps := opts.OuterReps
	if opts.Adaptive != nil {
		plan := opts.Adaptive.Resolve(opts.OuterReps)
		adaptive = &adaptiveState{plan: plan, statistic: opts.Statistic}
		maxReps = plan.MaxReps
	}
	msp := root.Child("measure").
		Int("outer_reps", int64(maxReps)).
		Int("inner_reps", int64(opts.InnerReps))
	measStart := mach.Now()
	samples := make([]float64, 0, maxReps)
	var iterations uint64
	var totalCycles float64
	// counted sums the pipeline counters of every measured job; the
	// counter export, the truncation flag and the energy inputs all read
	// this one total.
	var counted cpu.Result

	// One job batch and result scratch per launch, refilled every inner
	// repetition: the measured loop itself allocates nothing per call.
	jobs := make([]sim.Job, len(pins))
	resScratch := make([]sim.JobResult, 0, 1)

	if repHist != nil && !tick.Started() {
		tick.Reset() // calibration was off; base the lap chain here
	}
	stopReason := ""
	for rep := 0; rep < maxReps; rep++ {
		if err := ctxErr(ctx); err != nil {
			msp.Str("error", err.Error()).End()
			return nil, err
		}
		if opts.Faults != nil {
			// The fault key is formatted only when a plan is armed.
			if err := opts.Faults.Check(faults.PointLauncherRep, fmt.Sprintf("%s/rep%d", prog.Name, rep)); err != nil {
				msp.Str("error", err.Error()).End()
				return nil, fmt.Errorf("launcher: rep %d: %w", rep, err)
			}
		}
		rsp := msp.Child("rep").Int("rep", int64(rep))
		repStart := mach.Now()
		mach.SetTraceSpan(rsp)
		var perCallCycles float64
		var repIters uint64
		switch opts.Mode {
		case Sequential, Fork:
			var total float64
			for inner := 0; inner < opts.InnerReps; inner++ {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
				for i, core := range pins {
					jobs[i] = sim.Job{
						Core:     core,
						Prog:     prog,
						Regs:     regsFor(procArrays[i], trip, 0),
						MaxInsts: opts.MaxInstructions,
					}
				}
				var rs []sim.JobResult
				if len(pins) == 1 {
					// Single-core repetitions ride the machine's
					// allocation-free RunOne fast path.
					r, err := mach.RunOne(jobs[0])
					if err != nil {
						return nil, err
					}
					rs = append(resScratch[:0], r)
				} else {
					var err error
					rs, err = mach.Run(jobs)
					if err != nil {
						return nil, err
					}
				}
				// Average across processes (Fig. 14 reports average
				// cycles per iteration across the forked cores).
				var sum float64
				for _, r := range rs {
					sum += float64(r.Cycles)
					counted.Add(r.Result)
					repIters = rs[0].EAX
				}
				total += sum / float64(len(rs))
			}
			perCallCycles = total/float64(opts.InnerReps) - overhead
		case OpenMP:
			cfg := openmp.DefaultConfig(nCores)
			if s := opts.OMPOverheadScale; s > 0 && s != 1 {
				cfg.ForkCycles = int64(float64(cfg.ForkCycles) * s)
				cfg.WakeupPerThread = int64(float64(cfg.WakeupPerThread) * s)
				cfg.JoinCycles = int64(float64(cfg.JoinCycles) * s)
				cfg.JoinPerThread = int64(float64(cfg.JoinPerThread) * s)
				cfg.DispatchCycles = int64(float64(cfg.DispatchCycles) * s)
			}
			if opts.OMPDynamic {
				cfg.StaticChunking = false
				if opts.OMPChunkElements > 0 {
					cfg.ChunkElements = opts.OMPChunkElements
				}
			}
			var total float64
			for inner := 0; inner < opts.InnerReps; inner++ {
				if err := ctxErr(ctx); err != nil {
					return nil, err
				}
				sub := cfg
				if inner > 0 {
					// The thread team persists across repetitions (as
					// libgomp's pool does): later regions skip the fork
					// and pay only the barrier.
					sub.ForkCycles = 0
					sub.WakeupPerThread = 0
				}
				res, err := openmp.ParallelFor(mach, sub, pins, trip,
					func(thread int, chunkStart, chunkLen int64) (sim.Job, error) {
						shift := uint64(chunkStart * opts.ElementBytes)
						return sim.Job{
							Core:     pins[thread],
							Prog:     prog,
							Regs:     regsFor(procArrays[thread], chunkLen, shift),
							MaxInsts: opts.MaxInstructions,
						}, nil
					})
				if err != nil {
					return nil, err
				}
				total += float64(res.RegionCycles)
				repIters += res.Iterations
				counted.Add(res.Result)
			}
			repIters /= uint64(opts.InnerReps)
			perCallCycles = total/float64(opts.InnerReps) - overhead
		}
		if perCallCycles < 0 {
			perCallCycles = 0
		}
		totalCycles += perCallCycles * float64(opts.InnerReps)
		iterations = repIters
		value := perCallCycles
		if opts.PerIteration {
			if repIters == 0 {
				return nil, fmt.Errorf("launcher: kernel %q returned 0 iterations in %%eax; add the Fig. 9 counter or set PerIteration=false", prog.Name)
			}
			value /= float64(repIters)
		}
		// Unit conversion.
		switch opts.TimeUnit {
		case UnitTSC:
			value *= desc.RefGHz / mach.CoreFrequency()
		case UnitSeconds:
			value /= mach.CoreFrequency() * 1e9
		}
		samples = append(samples, value)
		rsp.Float("value", value).Cycles(repStart, mach.Now()).End()
		if opts.Verbose != nil {
			logf("rep %d: %.4f %s", rep, value, opts.TimeUnit)
		}
		if adaptive != nil {
			if stopReason = adaptive.observe(value); stopReason != "" {
				if opts.Verbose != nil {
					logf("adaptive stop after rep %d: %s", rep, stopReason)
				}
				break
			}
		}
	}
	mach.SetTraceSpan(obs.Span{})
	if adaptive != nil {
		if stopReason == "" {
			stopReason = StopBudget
		}
		msp.Int("adaptive_reps", int64(len(samples))).Str("adaptive_stop", stopReason)
	}
	msp.Cycles(measStart, mach.Now()).End()
	if repHist != nil {
		// The whole repetition phase is one lap, recorded as one
		// observation per repetition at the phase mean: a second clock
		// read per rep would cost more than the budget allows, and the
		// cross-variant latency distribution is what the histogram is for.
		tick.LapN(repHist, len(samples))
	}

	meas.Iterations = iterations
	meas.Truncated = counted.Truncated
	meas.Summary = stats.Summarize(samples)
	meas.Stability = stats.StabilityOf(meas.Summary)
	meas.Value = opts.Statistic.Of(meas.Summary)
	if adaptive != nil {
		meas.Adaptive = &AdaptiveOutcome{
			Plan:       adaptive.plan,
			Reps:       len(samples),
			RCIW:       meas.Stability.RCIW,
			StopReason: stopReason,
		}
	}
	meas.MemStats = mach.Sys.Stats().Sub(memBefore)
	if opts.CollectCounters {
		meas.Counters = &obs.Counters{
			Mem:                  meas.MemStats,
			RetiredInsts:         counted.Insts,
			Branches:             counted.Mix.Branches,
			BranchMispredicts:    counted.Mispredicts,
			FrontendStallCycles:  counted.FrontendStalls,
			InterruptStallCycles: counted.IRQStalls,
			CoreCycles:           counted.Cycles,
		}
	}
	if opts.PerIteration && !meas.Truncated && iterations > 0 {
		if perIter := float64(trip) / float64(iterations); perIter > 0 {
			meas.ValuePerElement = meas.Value / perIter
		}
	}
	if opts.ReportEnergy {
		model := power.DefaultServerModel(desc.CoreGHz)
		seconds := totalCycles / (mach.CoreFrequency() * 1e9)
		est, err := model.Estimate(counted.Mix, meas.MemStats, counted.Insts, seconds, mach.CoreFrequency())
		if err != nil {
			return nil, err
		}
		meas.Energy = &est
	}
	return meas, nil
}

// LaunchOn runs the protocol on a caller-provided machine (for sweeps that
// must share or control machine state). The machine's noise/frequency
// settings are respected; opts.MachineName is ignored.
func LaunchOn(ctx context.Context, mach *sim.Machine, prog *isa.Program, opts Options) (*Measurement, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return launchOn(ctx, mach, prog, opts)
}
