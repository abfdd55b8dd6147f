package main

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"
)

// The host's speed drifts. On the 2-vCPU VM this benchmark was tuned on,
// the same quick operation took 0.26 s in one run and 0.55 s a minute
// later, and its single-threaded set-up slowed from 40 to 86 µs with it.
// No amount of measuring inside one run removes that, so an untraced run
// times a fixed reference workload before every operation and every
// set-up, and reports the gated times in reference seconds: each wall
// time scaled so that the reference workload timed just before it takes
// exactly calibNominal. A change to the program moves the operation and
// not the reference; a change in the host's speed moves both.

const (
	// calibNominal is what the reference workload is taken to last.
	calibNominal = 10 * time.Millisecond
	// calibWorkers and calibRounds size the reference workload: two
	// goroutines, as the quick workload's two campaign workers, each
	// making calibRounds small maps.
	calibWorkers = 2
	calibRounds  = 1000
)

// calibSink keeps the reference workload's results alive.
var calibSink int

// calibrate runs the reference workload once and returns its wall time.
// It is frozen standard-library code that depends on nothing in the
// repository: each goroutine builds small string-keyed maps and encodes
// them as JSON, so it hashes, branches, allocates and makes garbage as
// the operations do.
func calibrate() time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, calibWorkers)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calibRounds; i++ {
				m := make(map[string]int, 16)
				for j := 0; j < 16; j++ {
					m["k"+strconv.Itoa(i*16+j)] = j
				}
				b, _ := json.Marshal(m) // a map of ints always encodes
				sums[g] += len(b)
			}
		}(g)
	}
	wg.Wait()
	d := time.Since(t)
	for _, s := range sums {
		calibSink += s
	}
	return d
}

// refMedian is the median of xs in reference seconds: each wall time
// xs[i] scaled by calibNominal over calibs[i], the reference workload's
// wall time next to it.
func refMedian(xs, calibs []float64) float64 {
	ref := make([]float64, len(xs))
	for i, x := range xs {
		ref[i] = x * calibNominal.Seconds() / calibs[i]
	}
	return median(ref)
}
