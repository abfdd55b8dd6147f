package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"microtools/internal/campaign"
	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/telemetry"
	"microtools/internal/xmlspec"
)

// machineName is the simulated machine every workload runs on: the
// dual-socket Nehalem with caches scaled down 8x, the repository's study
// default.
const machineName = "nehalem-dual/8"

// defaultSeed is the workload seed used when -seed is not given.
// Recording the goldens checks that heldOutSeed, which no tuning run used,
// yields the same outputs.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// workload is one named input set of the benchmark. README.md records why
// each one was chosen and which layers it loads.
type workload struct {
	name  string
	specs []string // repository-relative XML kernel descriptions
	// Launch settings.
	arrayBytes   int64
	outer, inner int // outer timed experiments, calls per experiment
	// Campaign settings.
	checkBounds bool
	workers     int
	// serve routes every operation through an in-process measurement
	// daemon whose shared cache set-up prefilled; otherwise each
	// operation runs in-process against a fresh JSONL cache.
	serve bool
}

var workloads = []*workload{
	{
		name:       "fig6-quick-cold",
		specs:      []string{"specs/loadstore_movaps.xml"},
		arrayBytes: 16 << 10, outer: 2, inner: 1,
		checkBounds: true, workers: 2,
	},
	{
		name:       "fig6-warm-serve",
		specs:      []string{"specs/loadstore_movaps.xml"},
		arrayBytes: 16 << 10, outer: 2, inner: 1,
		checkBounds: true, workers: 2,
		serve: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// study is a workload resolved against a seed: the inputs one operation
// consumes, loaded once during set-up.
type study struct {
	w    *workload
	spec []byte               // the workload's specs, concatenated
	gen  core.GenerateOptions // carries the run's seed
	// launch is the per-variant measurement configuration.
	launch launcher.Options
}

// load reads and validates the workload's specs under root: the
// benchmark's set-up for an in-process operation.
func (w *workload) load(root string, seed int64) (*study, error) {
	var spec bytes.Buffer
	for _, p := range w.specs {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			return nil, err
		}
		spec.Write(b)
		spec.WriteByte('\n')
	}
	if _, err := xmlspec.Parse(bytes.NewReader(spec.Bytes())); err != nil {
		return nil, err
	}
	if _, err := machine.ByName(machineName); err != nil {
		return nil, err
	}
	return &study{
		w:    w,
		spec: spec.Bytes(),
		gen:  core.GenerateOptions{Seed: seed},
		launch: launcher.NewOptions(
			launcher.WithMachine(machineName),
			launcher.WithArrayBytes(w.arrayBytes),
			launcher.WithReps(w.outer, w.inner),
		),
	}, nil
}

// campaignOptions is the engine configuration of one in-process
// operation.
func (st *study) campaignOptions(cache *campaign.Cache, workers int, metrics *telemetry.Metrics) campaign.Options {
	return campaign.NewOptions(
		campaign.WithLaunch(st.launch),
		campaign.WithWorkers(workers),
		campaign.WithCache(cache),
		campaign.WithCheckBounds(st.w.checkBounds),
		campaign.WithMetrics(metrics),
	)
}
