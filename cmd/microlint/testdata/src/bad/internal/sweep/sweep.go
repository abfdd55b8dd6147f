// Package sweep trips L013 twice: an internal package outside the campaign
// engine that launches on its own, once by calling launcher.Launch and once
// by storing launcher.LaunchOn to call later.
package sweep

import (
	"context"

	"microtools/internal/isa"
	"microtools/internal/launcher"
)

// measureAll is the second fan-out engine L013 keeps out.
func measureAll(ctx context.Context, progs []*isa.Program, opts launcher.Options) ([]*launcher.Measurement, error) {
	out := make([]*launcher.Measurement, len(progs))
	for i, p := range progs {
		m, err := launcher.Launch(ctx, p, opts)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

var launchOn = launcher.LaunchOn
