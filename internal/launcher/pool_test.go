package launcher

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"microtools/internal/isa"
	"microtools/internal/telemetry"
)

// TestLaunchPoolConcurrent hammers one machine name's pool from 8
// goroutines, interleaving two kernels and two option sets (a quiet
// sequential launch, and a noisy two-core fork at a non-nominal
// frequency). Whichever pooled machine a launch draws, and whether its
// warm-up is simulated or restored from the machine's memo (the test
// checks both happen), its measurement must encode byte-identically to
// the serial one; run under -race it also proves a machine is never
// shared between two launches.
func TestLaunchPoolConcurrent(t *testing.T) {
	kernels := []*isa.Program{
		parse(t, kernelSrc(4, "movaps", 16), "k4"),
		parse(t, kernelSrc(8, "movaps", 16), "k8"),
	}
	quiet := defaultTestOptions()
	quiet.CollectCounters = true
	noisy := defaultTestOptions()
	noisy.Mode, noisy.Cores = Fork, 2
	noisy.CoreFrequencyGHz = 2.0
	noisy.DisableInterrupts, noisy.NoiseSeed = false, 17
	optSets := []Options{quiet, noisy}

	ctx := context.Background()
	encode := func(k, o int) (string, error) {
		m, err := Launch(ctx, kernels[k], optSets[o])
		if err != nil {
			return "", err
		}
		raw, err := json.Marshal(m)
		return string(raw), err
	}
	var serial [2][2]string
	for k := range kernels {
		for o := range optSets {
			enc, err := encode(k, o)
			if err != nil {
				t.Fatal(err)
			}
			serial[k][o] = enc
		}
	}

	// Count the concurrent launches' warm-ups: a pooled machine whose
	// last launch used the other option set simulates its warm-up, one
	// that repeats its last option set restores it from its memo.
	met := telemetry.NewMetrics(telemetry.NewRegistry())
	for o := range optSets {
		optSets[o].Metrics = met
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Kernels alternate every round; each goroutine keeps an
			// option set for three rounds while the other half of them
			// use the other one, so pooled machines see both repeats
			// and changes.
			for r := 0; r < rounds; r++ {
				k, o := (g+r)%2, (g+r/3)%2
				enc, err := encode(k, o)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if enc != serial[k][o] {
					errs <- "kernel " + kernels[k].Name + ": concurrent result differs from the serial one:\n" +
						enc + "\n" + serial[k][o]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hits, misses := met.SimWarmHits.Value(), met.SimWarmMisses.Value(); hits == 0 || misses == 0 {
		t.Errorf("pooled warm-ups: %d memo hits, %d misses; want both", hits, misses)
	}
}
