package launcher

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"microtools/internal/isa"
)

// TestLaunchPoolConcurrent hammers one machine name's pool from 8
// goroutines, interleaving two kernels and two option sets (a quiet
// sequential launch, and a noisy two-core fork at a non-nominal
// frequency). Whichever pooled machine a launch draws, its measurement
// must encode byte-identically to the serial one; run under -race it also
// proves a machine is never shared between two launches.
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

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k, o := (g+r)%2, (g/2+r)%2
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
}
