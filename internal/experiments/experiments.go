// Package experiments reproduces every evaluation figure and table of the
// paper (§2 and §5): each Experiment regenerates one plot/table as a
// stats.Table whose series mirror the paper's plot lines. DESIGN.md holds
// the experiment index; EXPERIMENTS.md records paper-vs-measured shapes.
//
// All experiments run on the Table 1 machines with cache capacities scaled
// down (machine.Scaled) so full sweeps complete in seconds; array sizes are
// scaled identically, so every residency boundary sits where the paper's
// protocol puts it ("L1 actually represents where the array is half the
// size of the architectures' first cache level", §5.1).
//
// Each experiment is a sweep of launches: it builds one campaign.Point per
// launch (a program and the launcher options it runs under), measures them
// all through the campaign engine (campaign.RunPoints) and reads the
// measurements back in point order to fill its table.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/stats"
)

// Config tunes experiment execution.
type Config struct {
	// Quick shrinks sweeps for bench/CI runs (fewer points, smaller
	// instruction budgets); the shapes remain.
	Quick bool
	// Verbose receives progress lines when non-nil.
	Verbose io.Writer
	// Workers is the campaign engine's worker count for an experiment's
	// launches (0 = GOMAXPROCS, 1 = serial). Every launch runs on its own
	// simulated machine and measurements are read back in point order, so
	// tables are bit-identical at every worker count.
	Workers int
}

// sweep collects an experiment's launches as campaign points, each with
// the function that reads its measurement back into the table.
type sweep struct {
	points []campaign.Point
	reads  []func(*launcher.Measurement)
}

// add queues one launch. label names the point in the error of a failed
// launch; read receives the point's measurement.
func (s *sweep) add(label string, prog *isa.Program, opts launcher.Options, read func(*launcher.Measurement)) {
	s.points = append(s.points, campaign.Point{Program: codegen.Program{Name: label, Parsed: prog}, Launch: opts})
	s.reads = append(s.reads, read)
}

// measure runs the sweep's points through the campaign engine, the first
// failure canceling the remaining launches, then hands each measurement
// to its read function in point order.
func (c Config) measure(ctx context.Context, s *sweep) error {
	res, err := campaign.RunPoints(ctx, s.points, campaign.Options{Workers: c.Workers, FailFast: true})
	if err != nil {
		return err
	}
	for i, m := range res.Measurements() {
		s.reads[i](m)
	}
	return nil
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the figure/table identifier ("fig03" ... "tab02").
	ID    string
	Title string
	// Paper summarizes what the paper's version shows (the shape to
	// reproduce).
	Paper string
	// Machine names the Table 1 platform used (scaled variant).
	Machine string
	Run     func(context.Context, Config) (*stats.Table, error)
}

var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns the experiments in paper order.
func All() []*Experiment {
	out := append([]*Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}
