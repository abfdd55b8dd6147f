// Package memsim is the memory-system substrate of the MicroTools
// reproduction: a deterministic timing model of the cache hierarchy and
// memory controllers of the paper's Table 1 machines.
//
// It models, structurally rather than statistically:
//
//   - private set-associative L1/L2 per core and a shared L3 per socket,
//     LRU replacement, write-allocate/write-back;
//   - limited miss parallelism (line-fill buffers / MSHRs) with same-line
//     merge, which makes streaming bandwidth-bound rather than
//     latency-bound;
//   - L1 bank conflicts and 4K store-load aliasing, the mechanisms behind
//     the alignment sensitivity of Figs. 4, 15 and 16;
//   - a next-line prefetcher;
//   - per-socket memory controllers with a finite number of channels and
//     finite per-channel bandwidth — queueing there produces the multi-core
//     saturation knee of Fig. 14;
//   - split core/uncore clock domains (L1/L2 in core cycles, L3/memory in
//     uncore cycles), which produce Fig. 13's frequency behaviour.
//
// All timing flows in *core* clock cycles; uncore latencies are converted
// through the configured clock ratio. The model is single-goroutine
// deterministic: the machine simulator steps cores in bounded quanta and
// feeds accesses in approximately global time order.
package memsim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     int64 // capacity in bytes
	LineSize int64 // bytes per line
	Assoc    int   // ways per set
	// Latency is the hit latency, in this level's clock domain cycles
	// (core cycles for L1/L2, uncore cycles for L3).
	Latency int
	// ThroughputCycles is the port occupancy per access (1 = one access
	// per cycle).
	ThroughputCycles int
	// MSHRs bounds outstanding misses (L1 only; 0 disables the limit).
	MSHRs int
	// Banks is the number of L1 data banks (0 disables bank modelling).
	Banks int
}

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("memsim: %s: invalid geometry (size=%d line=%d assoc=%d)", c.Name, c.Size, c.LineSize, c.Assoc)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("memsim: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	sets := c.Size / (c.LineSize * int64(c.Assoc))
	if sets <= 0 {
		return fmt.Errorf("memsim: %s: set count %d not positive", c.Name, sets)
	}
	if c.Size%(c.LineSize*int64(c.Assoc)) != 0 {
		return fmt.Errorf("memsim: %s: size %d not a whole number of sets", c.Name, c.Size)
	}
	if c.Latency <= 0 {
		return fmt.Errorf("memsim: %s: latency must be positive", c.Name)
	}
	return nil
}

// MemConfig describes one socket's memory controller.
type MemConfig struct {
	// Latency is the idle (unloaded) access latency in uncore cycles,
	// controller arrival to first data.
	Latency int
	// Channels is the number of independent memory channels.
	Channels int
	// ChannelBytesPerCycle is per-channel transfer bandwidth in bytes per
	// uncore cycle.
	ChannelBytesPerCycle float64
	// RowBytes is the DRAM row-buffer reach per bank; accesses within
	// the open row are fast, a row change pays RowMissCycles (uncore).
	// 0 disables row modelling. Streaming kernels hit the open row;
	// large-stride walks (the §2 matmul column) miss on every line —
	// the mechanism behind the Fig. 3 cutting point's depth.
	RowBytes      int64
	RowMissCycles int
	// BanksPerChannel is the number of DRAM banks (row buffers) per
	// channel (default 1). Concurrent streams whose rows land in the
	// same bank thrash each other's open row; relative array alignments
	// shift when streams overlap in a bank — one of the §5.2.2
	// alignment mechanisms.
	BanksPerChannel int
}

// Validate checks the controller parameters.
func (m MemConfig) Validate() error {
	if m.Latency <= 0 || m.Channels <= 0 || m.ChannelBytesPerCycle <= 0 {
		return fmt.Errorf("memsim: invalid memory config %+v", m)
	}
	return nil
}

// HierarchyConfig assembles a machine's memory system.
type HierarchyConfig struct {
	L1, L2 CacheConfig // private, per core
	L3     CacheConfig // shared, per socket
	Mem    MemConfig   // per socket

	// CoresPerSocket maps cores to sockets (core / CoresPerSocket).
	CoresPerSocket int

	// CoreClockRatio is core cycles per uncore cycle (fCore / fUncore).
	// 1.0 means a unified clock.
	CoreClockRatio float64

	// NextLinePrefetch enables the streaming prefetcher.
	NextLinePrefetch bool
	// PrefetchOutstanding bounds the streamer's in-flight line fills per
	// core. Streaming bandwidth is then outstanding/round-trip — fast
	// from the L3, slower from memory — and, because the round trip is
	// uncore-latency bound, single-core memory bandwidth does not scale
	// with the core clock (cf. Fig. 13). The bound is also what keeps one
	// core from saturating every memory channel by itself (Fig. 14's
	// knee). 0 = unbounded.
	PrefetchOutstanding int

	// AliasPenalty is the extra core-cycle cost of a load that 4K-aliases
	// a recent store (0 disables the check).
	AliasPenalty int
	// AliasWindow is how many core cycles back a store can alias.
	AliasWindow int64

	// SplitPenalty is the extra cost of an access crossing a cache line.
	SplitPenalty int
}

// Validate checks the configuration.
func (h HierarchyConfig) Validate() error {
	for _, c := range []CacheConfig{h.L1, h.L2, h.L3} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if err := h.Mem.Validate(); err != nil {
		return err
	}
	if h.CoresPerSocket <= 0 {
		return fmt.Errorf("memsim: CoresPerSocket must be positive")
	}
	if h.CoreClockRatio <= 0 {
		return fmt.Errorf("memsim: CoreClockRatio must be positive")
	}
	return nil
}

// Stats aggregates event counts across the system's lifetime.
type Stats struct {
	Loads           int64 `json:"loads"`
	Stores          int64 `json:"stores"`
	L1Hits          int64 `json:"l1_hits"`
	L1Misses        int64 `json:"l1_misses"`
	L2Hits          int64 `json:"l2_hits"`
	L2Misses        int64 `json:"l2_misses"`
	L3Hits          int64 `json:"l3_hits"`
	L3Misses        int64 `json:"l3_misses"`
	MemAccesses     int64 `json:"mem_accesses"`
	Writebacks      int64 `json:"writebacks"`
	BankConflicts   int64 `json:"bank_conflicts"`
	AliasStalls     int64 `json:"alias_stalls"`
	LineSplits      int64 `json:"line_splits"`
	Prefetches      int64 `json:"prefetches"`
	PrefetchHits    int64 `json:"prefetch_hits"`
	MSHRMerges      int64 `json:"mshr_merges"`
	MSHRFullWaits   int64 `json:"mshr_full_waits"`
	RowMisses       int64 `json:"row_misses"`
	BytesFromMemory int64 `json:"bytes_from_memory"`
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Loads:           s.Loads + o.Loads,
		Stores:          s.Stores + o.Stores,
		L1Hits:          s.L1Hits + o.L1Hits,
		L1Misses:        s.L1Misses + o.L1Misses,
		L2Hits:          s.L2Hits + o.L2Hits,
		L2Misses:        s.L2Misses + o.L2Misses,
		L3Hits:          s.L3Hits + o.L3Hits,
		L3Misses:        s.L3Misses + o.L3Misses,
		MemAccesses:     s.MemAccesses + o.MemAccesses,
		Writebacks:      s.Writebacks + o.Writebacks,
		BankConflicts:   s.BankConflicts + o.BankConflicts,
		AliasStalls:     s.AliasStalls + o.AliasStalls,
		LineSplits:      s.LineSplits + o.LineSplits,
		Prefetches:      s.Prefetches + o.Prefetches,
		PrefetchHits:    s.PrefetchHits + o.PrefetchHits,
		MSHRMerges:      s.MSHRMerges + o.MSHRMerges,
		MSHRFullWaits:   s.MSHRFullWaits + o.MSHRFullWaits,
		RowMisses:       s.RowMisses + o.RowMisses,
		BytesFromMemory: s.BytesFromMemory + o.BytesFromMemory,
	}
}

// Sub returns the field-wise delta s − o: the event counts accumulated
// between two snapshots. Capturing Stats() before and after a measured
// region and subtracting yields counters unpolluted by warm-up or
// calibration traffic, and leaves the system's cumulative totals intact.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Loads:           s.Loads - o.Loads,
		Stores:          s.Stores - o.Stores,
		L1Hits:          s.L1Hits - o.L1Hits,
		L1Misses:        s.L1Misses - o.L1Misses,
		L2Hits:          s.L2Hits - o.L2Hits,
		L2Misses:        s.L2Misses - o.L2Misses,
		L3Hits:          s.L3Hits - o.L3Hits,
		L3Misses:        s.L3Misses - o.L3Misses,
		MemAccesses:     s.MemAccesses - o.MemAccesses,
		Writebacks:      s.Writebacks - o.Writebacks,
		BankConflicts:   s.BankConflicts - o.BankConflicts,
		AliasStalls:     s.AliasStalls - o.AliasStalls,
		LineSplits:      s.LineSplits - o.LineSplits,
		Prefetches:      s.Prefetches - o.Prefetches,
		PrefetchHits:    s.PrefetchHits - o.PrefetchHits,
		MSHRMerges:      s.MSHRMerges - o.MSHRMerges,
		MSHRFullWaits:   s.MSHRFullWaits - o.MSHRFullWaits,
		RowMisses:       s.RowMisses - o.RowMisses,
		BytesFromMemory: s.BytesFromMemory - o.BytesFromMemory,
	}
}
