package memsim

import (
	"fmt"
	"math"
	"math/rand"
)

// inflight tracks one outstanding L1 miss (an allocated line-fill buffer).
type inflight struct {
	line  uint64
	ready int64 // core cycle at which the fill completes
}

// storeRec remembers a recent store for 4K-aliasing detection.
type storeRec struct {
	addr  uint64
	cycle int64
}

const storeWindowSize = 16

// coreState is the per-core private memory machinery.
type coreState struct {
	l1 *cache
	l2 *cache

	mshr []inflight
	// mshrMax bounds every ready cycle in mshr from above (the largest
	// written since Reset), so a hit issued at or after it skips the scan.
	mshrMax int64

	// bankFree[b] is the next core cycle L1 bank b is free.
	bankFree []int64
	// l2Free is the L2 port next-free cycle. (L1 issue bandwidth is
	// governed by the CPU model's load/store ports, not here.)
	l2Free int64

	stores [storeWindowSize]storeRec
	storeI int

	// streams is the prefetch trainer: an 8-entry table of ascending
	// stream trackers (real Nehalem-class prefetchers follow many
	// concurrent streams; a single-stream trainer cannot drive kernels
	// that interleave several arrays, like the §5.2.2 traversals).
	// last is the most recent line of the stream, head the prefetch
	// frontier already requested.
	streams [8]stream
	streamI int

	// l2fill tracks lines the streamer is pulling into L2, so demand
	// accesses arriving before the fill completes wait for it.
	l2fill [16]inflight
	l2i    int
	// l2fillMax bounds every ready cycle in l2fill from above, like
	// mshrMax.
	l2fillMax int64

	// pfInflight is a ring of the streamer's in-flight fill completion
	// times, bounding outstanding requests.
	pfInflight []int64
	pfIdx      int
	// replayFree serializes 4K-alias replays: an aliased load re-runs
	// through the load pipeline, consuming issue bandwidth.
	replayFree int64
}

// stream is one tracked ascending access stream.
type stream struct {
	last uint64
	head uint64
}

// socketState is the shared per-socket machinery.
type socketState struct {
	l3 *cache
	// l3Free is the shared L3 port next-free core cycle.
	l3Free int64
	// chanFree[c] is channel c's next-free core cycle.
	chanFree []int64
	// openRow[c*banks+b] is the DRAM row currently open in bank b of
	// channel c.
	openRow []uint64
	banks   int
}

// System is one machine's memory system.
type System struct {
	cfg    HierarchyConfig
	nCores int
	cores  []coreState
	socks  []socketState

	// Derived core-cycle latencies.
	l3Lat      int64
	memLat     int64
	lineMemSvc int64 // channel occupancy per line, core cycles
	lineL3Svc  int64 // L3 port occupancy per line fill
	rowMiss    int64 // row-buffer miss penalty, core cycles

	stats Stats

	// baseRatio is the construction-time CoreClockRatio Reset restores.
	baseRatio float64
}

// NewSystem builds the memory system for nCores cores.
func NewSystem(cfg HierarchyConfig, nCores int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 {
		return nil, fmt.Errorf("memsim: need at least one core")
	}
	nSocks := (nCores + cfg.CoresPerSocket - 1) / cfg.CoresPerSocket
	s := &System{cfg: cfg, nCores: nCores, baseRatio: cfg.CoreClockRatio}
	s.cores = make([]coreState, nCores)
	for i := range s.cores {
		c := &s.cores[i]
		c.l1 = newCache(cfg.L1)
		c.l2 = newCache(cfg.L2)
		mshrs := cfg.L1.MSHRs
		if mshrs <= 0 {
			mshrs = 10
		}
		c.mshr = make([]inflight, mshrs)
		if cfg.PrefetchOutstanding > 0 {
			c.pfInflight = make([]int64, cfg.PrefetchOutstanding)
		}
		banks := cfg.L1.Banks
		if banks <= 0 {
			banks = 1
		}
		c.bankFree = make([]int64, banks)
	}
	s.socks = make([]socketState, nSocks)
	for i := range s.socks {
		s.socks[i].l3 = newCache(cfg.L3)
		s.socks[i].chanFree = make([]int64, cfg.Mem.Channels)
		banks := cfg.Mem.BanksPerChannel
		if banks < 1 {
			banks = 1
		}
		s.socks[i].banks = banks
		s.socks[i].openRow = make([]uint64, cfg.Mem.Channels*banks)
		for c := range s.socks[i].openRow {
			s.socks[i].openRow[c] = ^uint64(0)
		}
	}
	s.recomputeClocks()
	return s, nil
}

// Reset returns the system to the exact state NewSystem built — empty
// caches, idle ports, channels and MSHRs, untrained prefetchers, closed
// DRAM rows, the construction clock ratio and zeroed stats — without
// allocating, so one System can serve many launches in turn.
func (s *System) Reset() {
	for i := range s.cores {
		c := &s.cores[i]
		c.l1.reset()
		c.l2.reset()
		clear(c.mshr)
		clear(c.bankFree)
		clear(c.pfInflight)
		*c = coreState{l1: c.l1, l2: c.l2, mshr: c.mshr, bankFree: c.bankFree, pfInflight: c.pfInflight}
	}
	for i := range s.socks {
		sk := &s.socks[i]
		sk.l3.reset()
		clear(sk.chanFree)
		for r := range sk.openRow {
			sk.openRow[r] = ^uint64(0)
		}
		*sk = socketState{l3: sk.l3, chanFree: sk.chanFree, openRow: sk.openRow, banks: sk.banks}
	}
	s.cfg.CoreClockRatio = s.baseRatio
	s.recomputeClocks()
	s.stats = Stats{}
}

// recomputeClocks derives core-cycle latencies from the uncore-domain
// parameters and the configured clock ratio.
func (s *System) recomputeClocks() {
	r := s.cfg.CoreClockRatio
	s.l3Lat = int64(math.Ceil(float64(s.cfg.L3.Latency) * r))
	s.memLat = int64(math.Ceil(float64(s.cfg.Mem.Latency) * r))
	svcUncore := float64(s.cfg.L1.LineSize) / s.cfg.Mem.ChannelBytesPerCycle
	s.lineMemSvc = int64(math.Ceil(svcUncore * r))
	if s.lineMemSvc < 1 {
		s.lineMemSvc = 1
	}
	tp := s.cfg.L3.ThroughputCycles
	if tp <= 0 {
		tp = 1
	}
	s.lineL3Svc = int64(math.Ceil(float64(tp) * r))
	s.rowMiss = int64(math.Ceil(float64(s.cfg.Mem.RowMissCycles) * r))
}

// SetCoreClockRatio re-derives the uncore latencies for a new core/uncore
// frequency ratio (the Fig. 13 frequency sweep).
func (s *System) SetCoreClockRatio(ratio float64) error {
	if ratio <= 0 {
		return fmt.Errorf("memsim: clock ratio must be positive")
	}
	s.cfg.CoreClockRatio = ratio
	s.recomputeClocks()
	return nil
}

// Config returns the active configuration.
func (s *System) Config() HierarchyConfig { return s.cfg }

// Stats returns a snapshot of accumulated event counts.
func (s *System) Stats() Stats { return s.stats }

// ResetStats clears the counters (typically between warm-up and
// measurement).
func (s *System) ResetStats() { s.stats = Stats{} }

// NumCores returns the number of cores the system was built for.
func (s *System) NumCores() int { return s.nCores }

func (s *System) socketOf(core int) *socketState {
	return &s.socks[core/s.cfg.CoresPerSocket]
}

// Load performs a read of size bytes at addr by core, issued at the given
// core cycle, and returns the cycle at which the data is available.
func (s *System) Load(core int, addr uint64, size int, issue int64) int64 {
	s.stats.Loads++
	return s.access(core, addr, size, false, issue)
}

// Store performs a write and returns the cycle at which the store has
// committed to the L1 (store-buffer drain point).
func (s *System) Store(core int, addr uint64, size int, issue int64) int64 {
	s.stats.Stores++
	c := &s.cores[core]
	done := s.access(core, addr, size, true, issue)
	rec := &c.stores[c.storeI]
	rec.addr = addr
	rec.cycle = issue
	c.storeI = (c.storeI + 1) % storeWindowSize
	return done
}

// access is the common load/store path.
func (s *System) access(core int, addr uint64, size int, isWrite bool, issue int64) int64 {
	c := &s.cores[core]
	line := c.l1.lineOf(addr)
	lastLine := c.l1.lineOf(addr + uint64(size) - 1)

	// Bank conflicts: the access occupies its bank for one cycle; a
	// same-cycle access to a busy bank slips.
	if nb := len(c.bankFree); nb > 1 {
		bank := int(addr>>3) % nb
		if c.bankFree[bank] > issue {
			s.stats.BankConflicts++
			issue = c.bankFree[bank]
		}
		c.bankFree[bank] = issue + 1
	}

	// 4K aliasing: a load whose page offset falls within a line of a
	// recent store's page offset looks like a dependence to the
	// disambiguation hardware (it compares only the low address bits) and
	// pays a reissue penalty — the classic "(dst-src) mod 4096 < 64"
	// hazard between streams.
	if !isWrite && s.cfg.AliasPenalty > 0 {
		ls, window := uint64(s.cfg.L1.LineSize), s.cfg.AliasWindow
		for i := range c.stores {
			st := &c.stores[i]
			// A match must pass every test, so their order only sets
			// the cost: the page-offset test rejects most records.
			if (addr-st.addr)&4095 >= ls {
				continue
			}
			if st.cycle == 0 && st.addr == 0 {
				continue
			}
			if issue-st.cycle > window {
				continue
			}
			if c.l1.lineOf(st.addr) != line {
				s.stats.AliasStalls++
				// The replay re-runs the load through the pipeline: it
				// both delays this load and serializes against other
				// replays, consuming issue bandwidth.
				if issue < c.replayFree {
					issue = c.replayFree
				}
				issue += int64(s.cfg.AliasPenalty)
				c.replayFree = issue
				break
			}
		}
	}

	if s.cfg.NextLinePrefetch {
		s.train(core, line, issue)
	}
	ready := s.accessLine(core, line, isWrite, issue)
	if lastLine != line {
		// Line-split access (unaligned movups crossing a boundary).
		s.stats.LineSplits++
		r2 := s.accessLine(core, lastLine, isWrite, issue+1)
		r2 += int64(s.cfg.SplitPenalty)
		if r2 > ready {
			ready = r2
		}
	}
	return ready
}

// accessLine resolves a single-line access against the hierarchy.
func (s *System) accessLine(core int, line uint64, isWrite bool, issue int64) int64 {
	c := &s.cores[core]
	l1Lat := int64(s.cfg.L1.Latency)
	if c.l1.lookup(line, isWrite) {
		s.stats.L1Hits++
		ready := issue + l1Lat
		// The line may still be in flight (filled speculatively at miss
		// initiation): serve no earlier than the fill completes. No fill
		// completes after mshrMax.
		if c.mshrMax > ready {
			for i := range c.mshr {
				if c.mshr[i].line == line && c.mshr[i].ready > ready {
					ready = c.mshr[i].ready
				}
			}
		}
		return ready
	}
	s.stats.L1Misses++

	// Merge with an outstanding fill of the same line.
	for i := range c.mshr {
		m := &c.mshr[i]
		if m.line == line && m.ready > issue {
			s.stats.MSHRMerges++
			return m.ready
		}
	}

	// Allocate an MSHR: wait for the earliest-free one if all are busy.
	slot := 0
	for i := range c.mshr {
		if c.mshr[i].ready <= issue {
			slot = i
			goto allocated
		}
		if c.mshr[i].ready < c.mshr[slot].ready {
			slot = i
		}
	}
	s.stats.MSHRFullWaits++
	issue = c.mshr[slot].ready
allocated:

	fill := s.fetchFromL2(core, line, issue)
	c.mshr[slot] = inflight{line: line, ready: fill}
	if fill > c.mshrMax {
		c.mshrMax = fill
	}
	s.insertL1(core, line, isWrite)

	return fill
}

// prefetchDistance is how many lines ahead of the demand stream the
// streamer keeps the L2 (Nehalem-class streamers run up to ~20 lines
// ahead; scaled to the simulator's shorter latencies).
const prefetchDistance = 8

// train advances the stream prefetcher on a demand access: a line that
// continues a tracked ascending stream extends the L2 prefetch frontier up
// to prefetchDistance lines ahead (whether the access itself hits or
// misses — prefetched lines must keep the stream alive); a line matching
// no tracker claims a slot.
func (s *System) train(core int, line uint64, issue int64) {
	c := &s.cores[core]
	ls := uint64(s.cfg.L1.LineSize)
	for i := range c.streams {
		st := &c.streams[i]
		if line == st.last {
			return // still on the tracked line
		}
		if line == st.last+ls {
			st.last = line
			target := line + prefetchDistance*ls
			cand := st.head + ls
			if cand <= line {
				cand = line + ls
			}
			for ; cand <= target; cand += ls {
				s.prefetchToL2(core, cand, issue)
			}
			st.head = target
			return
		}
	}
	c.streams[c.streamI] = stream{last: line, head: line}
	c.streamI = (c.streamI + 1) % len(c.streams)
}

// prefetchToL2 pulls a line into the L2 through the streamer's own path
// (no L1 fill buffer involved), charging the shared L3/memory bandwidth.
func (s *System) prefetchToL2(core int, line uint64, issue int64) {
	c := &s.cores[core]
	if c.l1.contains(line) || c.l2.contains(line) {
		return
	}
	s.stats.Prefetches++
	// Bounded outstanding requests: the next request waits for the
	// oldest in-flight fill in the window to complete.
	start := issue
	if len(c.pfInflight) > 0 {
		if oldest := c.pfInflight[c.pfIdx]; oldest > start {
			start = oldest
		}
	}
	fill := s.fetchFromL3(core, line, start)
	if len(c.pfInflight) > 0 {
		c.pfInflight[c.pfIdx] = fill
		c.pfIdx = (c.pfIdx + 1) % len(c.pfInflight)
	}
	c.l2fill[c.l2i] = inflight{line: line, ready: fill}
	if fill > c.l2fillMax {
		c.l2fillMax = fill
	}
	c.l2i = (c.l2i + 1) % len(c.l2fill)
	victim, vDirty := c.l2.insert(line, false)
	if victim != 0 && vDirty {
		s.writebackToL3(core, victim)
	}
}

// insertL1 fills a line into L1, spilling dirty victims to L2.
func (s *System) insertL1(core int, line uint64, dirty bool) {
	c := &s.cores[core]
	victim, vDirty := c.l1.insert(line, dirty)
	if victim != 0 && vDirty {
		s.stats.Writebacks++
		// Write back into L2; charge its port.
		c.l2Free += int64(s.cfg.L2.ThroughputCycles)
		vv, vvDirty := c.l2.insert(victim, true)
		if vv != 0 && vvDirty {
			s.writebackToL3(core, vv)
		}
	}
}

// fetchFromL2 returns the core cycle at which the line arrives from L2 or
// beyond.
func (s *System) fetchFromL2(core int, line uint64, issue int64) int64 {
	c := &s.cores[core]
	tp := int64(s.cfg.L2.ThroughputCycles)
	if tp < 1 {
		tp = 1
	}
	start := issue
	if start < c.l2Free {
		start = c.l2Free
	}
	c.l2Free = start + tp
	if c.l2.lookup(line, false) {
		s.stats.L2Hits++
		ready := start + int64(s.cfg.L2.Latency)
		// The line may still be in flight from the streamer.
		if c.l2fillMax > ready {
			for i := range c.l2fill {
				if c.l2fill[i].line == line && c.l2fill[i].ready > ready {
					ready = c.l2fill[i].ready
				}
			}
		}
		return ready
	}
	s.stats.L2Misses++
	fill := s.fetchFromL3(core, line, start+int64(s.cfg.L2.Latency))
	victim, vDirty := c.l2.insert(line, false)
	if victim != 0 && vDirty {
		s.writebackToL3(core, victim)
	}
	return fill
}

// fetchFromL3 resolves a line at the shared L3 / memory level.
func (s *System) fetchFromL3(core int, line uint64, issue int64) int64 {
	sk := s.socketOf(core)
	start := issue
	if start < sk.l3Free {
		start = sk.l3Free
	}
	sk.l3Free = start + s.lineL3Svc
	if sk.l3.lookup(line, false) {
		s.stats.L3Hits++
		return start + s.l3Lat
	}
	s.stats.L3Misses++
	fill := s.fetchFromMemory(sk, line, start+s.l3Lat)
	victim, vDirty := sk.l3.insert(line, false)
	if victim != 0 && vDirty {
		s.chargeChannel(sk, victim, issue)
		s.stats.Writebacks++
	}
	return fill
}

// writebackToL3 spills a dirty L2 victim into the socket's L3.
func (s *System) writebackToL3(core int, line uint64) {
	sk := s.socketOf(core)
	s.stats.Writebacks++
	sk.l3Free += s.lineL3Svc
	victim, vDirty := sk.l3.insert(line, true)
	if victim != 0 && vDirty {
		s.chargeChannel(sk, victim, sk.l3Free)
		s.stats.Writebacks++
	}
}

// channelOf maps a line to its memory channel (address-interleaved at line
// granularity, as real controllers do — which is also why relative array
// alignments shift channel balance under load, one of the Fig. 15/16
// mechanisms).
func (s *System) channelOf(sk *socketState, line uint64) int {
	return int((line / uint64(s.cfg.L1.LineSize)) % uint64(len(sk.chanFree)))
}

// fetchFromMemory queues the line on its address-interleaved channel.
// Under aggregate demand beyond the channels' bandwidth, start times queue
// up and effective latency grows — the saturation mechanism of Fig. 14.
func (s *System) fetchFromMemory(sk *socketState, line uint64, issue int64) int64 {
	s.stats.MemAccesses++
	s.stats.BytesFromMemory += s.cfg.L1.LineSize
	ch := s.channelOf(sk, line)
	start := issue
	if start < sk.chanFree[ch] {
		start = sk.chanFree[ch]
	}
	svc := s.lineMemSvc
	if s.cfg.Mem.RowBytes > 0 {
		row := line / uint64(s.cfg.Mem.RowBytes)
		bank := int(row % uint64(sk.banks))
		slot := ch*sk.banks + bank
		if row != sk.openRow[slot] {
			// Precharge + activate before the transfer.
			svc += s.rowMiss
			sk.openRow[slot] = row
			s.stats.RowMisses++
		}
	}
	sk.chanFree[ch] = start + svc
	return start + s.memLat + svc
}

// chargeChannel consumes one line's worth of bandwidth on the line's
// channel (writeback traffic).
func (s *System) chargeChannel(sk *socketState, line uint64, at int64) {
	ch := s.channelOf(sk, line)
	if sk.chanFree[ch] < at {
		sk.chanFree[ch] = at
	}
	sk.chanFree[ch] += s.lineMemSvc
}

// FlushCore empties a core's private caches (migration noise, or explicit
// cold-cache runs). It leaves mshrMax and l2fillMax: they stay upper
// bounds on the cleared rings.
func (s *System) FlushCore(core int) {
	s.cores[core].l1.flush()
	s.cores[core].l2.flush()
	for i := range s.cores[core].mshr {
		s.cores[core].mshr[i] = inflight{}
	}
	for i := range s.cores[core].streams {
		s.cores[core].streams[i] = stream{}
	}
	for i := range s.cores[core].l2fill {
		s.cores[core].l2fill[i] = inflight{}
	}
	for i := range s.cores[core].pfInflight {
		s.cores[core].pfInflight[i] = 0
	}
}

// DisturbCore models an interrupt on the core: a fraction of its private
// cache lines are evicted (deterministically via rng).
func (s *System) DisturbCore(core int, rng *rand.Rand, frac float64) {
	s.cores[core].l1.invalidateFraction(rng, frac)
	s.cores[core].l2.invalidateFraction(rng, frac)
}

// L1Footprint returns the number of valid L1 lines on a core (tests).
func (s *System) L1Footprint(core int) int { return s.cores[core].l1.footprint() }
