package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// fingerprint is the simulated statistics of one operation's launches.
// The simulator is deterministic, so for a given workload and seed these
// counts repeat exactly: a change that only makes the simulator faster
// must leave them unchanged.
type fingerprint struct {
	InstsRetired int64 `json:"sim.insts.retired"`
	Launches     int   `json:"launches"`
	Reps         int   `json:"reps_executed"`
	L1Hits       int64 `json:"l1_hits"`
	L1Misses     int64 `json:"l1_misses"`
	L2Hits       int64 `json:"l2_hits"`
	L2Misses     int64 `json:"l2_misses"`
	L3Hits       int64 `json:"l3_hits"`
	L3Misses     int64 `json:"l3_misses"`
	RAMLines     int64 `json:"ram_lines"`
	Prefetches   int64 `json:"prefetches"`
}

func (l *layers) fingerprint() fingerprint {
	return fingerprint{
		InstsRetired: l.insts,
		Launches:     l.launches,
		Reps:         l.reps,
		L1Hits:       l.mem.L1Hits,
		L1Misses:     l.mem.L1Misses,
		L2Hits:       l.mem.L2Hits,
		L2Misses:     l.mem.L2Misses,
		L3Hits:       l.mem.L3Hits,
		L3Misses:     l.mem.L3Misses,
		RAMLines:     l.mem.MemAccesses,
		Prefetches:   l.mem.Prefetches,
	}
}

// golden is one workload's expected output: the ranking digest every
// operation must reproduce, and the simulated fingerprint of the cold
// replay.
type golden struct {
	Digest      string      `json:"digest"`
	Fingerprint fingerprint `json:"fingerprint"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns the recorded golden of a workload.
func loadGolden(workload string) (golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return golden{}, fmt.Errorf("golden.json: %w", err)
	}
	gd, ok := g[workload]
	if !ok {
		return golden{}, fmt.Errorf("golden.json has no entry for %s; record it with -record-goldens", workload)
	}
	return gd, nil
}

// writeGoldens records the golden of every workload from the serial
// replay, to path. No workload's output may depend on the seed, so each
// is recorded under the default and the held-out seed and the two must
// agree.
func writeGoldens(ctx context.Context, path string) error {
	g := map[string]golden{}
	for _, w := range workloads {
		a, err := recordGolden(ctx, w, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		b, err := recordGolden(ctx, w, heldOutSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if a != b {
			return fmt.Errorf("%s: seeds %d and %d give different outputs: %+v, %+v", w.name, defaultSeed, heldOutSeed, a, b)
		}
		g[w.name] = a
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// recordGolden derives a workload's golden from the serial replay.
func recordGolden(ctx context.Context, w *workload, seed int64) (golden, error) {
	st, err := w.load(".", seed)
	if err != nil {
		return golden{}, err
	}
	dir, err := tempDir()
	if err != nil {
		return golden{}, err
	}
	defer os.RemoveAll(dir)
	var l layers
	out, cache, _, err := coldReplay(ctx, st, dir, &l)
	if err != nil {
		return golden{}, err
	}
	cache.Close()
	return golden{Digest: out.digest, Fingerprint: l.fingerprint()}, nil
}
