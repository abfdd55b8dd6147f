package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/core"
	"microtools/internal/isa"
	"microtools/internal/telemetry"
)

// seedSpecs returns every seed spec shipped with the repository.
func seedSpecs(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seed specs found: %v", err)
	}
	return paths
}

// TestBoundsOracleAcrossSeedSpecs is the differential sweep of the oracle
// invariant: every variant of every seed spec, measured on both machine
// models, must respect the static lower bound (the bound and the simulator
// schedule from the same decode tables, so a violation is an analysis bug,
// not noise).
func TestBoundsOracleAcrossSeedSpecs(t *testing.T) {
	for _, machineName := range []string{"nehalem-dual", "sandybridge"} {
		for _, path := range seedSpecs(t) {
			name := machineName + "/" + filepath.Base(path)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				launch := quickLaunch()
				launch.MachineName = machineName
				counters := telemetry.NewRegistry()
				res, err := RunFile(context.Background(), path, core.GenerateOptions{},
					Options{Launch: launch, Workers: 8, CheckBounds: true, Metrics: telemetry.NewMetrics(counters)})
				if err != nil {
					t.Fatalf("campaign: %v", err)
				}
				bounded := 0
				for _, r := range res.Results {
					var bv *BoundViolationError
					if errors.As(r.Err, &bv) {
						t.Errorf("variant %s: %v", r.Name, bv)
					}
					if r.StaticBound > 0 {
						bounded++
						if r.Measurement != nil && r.Measurement.StaticBound != r.StaticBound {
							t.Errorf("variant %s: measurement bound %g != result bound %g",
								r.Name, r.Measurement.StaticBound, r.StaticBound)
						}
					}
				}
				if bounded == 0 {
					t.Errorf("no variant of %s received a static bound", filepath.Base(path))
				}
				if got := counters.Counter("analysis.bound.violations").Value(); got != 0 {
					t.Errorf("analysis.bound.violations = %d, want 0", got)
				}
			})
		}
	}
}

// TestBoundsOracleCatchesCorruptedTable proves the CheckBounds assertion has
// teeth: computing the bound from a deliberately corrupted µop table (frontend
// narrowed to one µop per cycle) must trip BoundViolationError on kernels the
// real four-wide frontend measures faster than that inflated floor.
func TestBoundsOracleCatchesCorruptedTable(t *testing.T) {
	corrupted := *isa.Nehalem()
	corrupted.Name = "nehalem-corrupted"
	corrupted.IssueWidth = 1

	launch := quickLaunch()
	launch.MachineName = "nehalem-dual"
	counters := telemetry.NewRegistry()
	res, err := Run(context.Background(), strings.NewReader(sweepSpec), core.GenerateOptions{}, Options{
		Launch:      launch,
		CheckBounds: true,
		Metrics:     telemetry.NewMetrics(counters),
		boundArch:   &corrupted,
	})
	if err == nil {
		t.Fatal("corrupted latency table produced no campaign error")
	}

	violations := 0
	for _, r := range res.Results {
		var bv *BoundViolationError
		if !errors.As(r.Err, &bv) {
			continue
		}
		violations++
		if r.Measurement != nil {
			t.Errorf("variant %s: violation carries a measurement", r.Name)
		}
		if bv.Measured >= bv.Bound-bv.Tolerance {
			t.Errorf("variant %s: reported violation does not violate: %v", r.Name, bv)
		}
	}
	if violations == 0 {
		t.Fatal("corrupted latency table produced no BoundViolationError: the oracle has no teeth")
	}
	if got := counters.Counter("analysis.bound.violations").Value(); got != int64(violations) {
		t.Errorf("analysis.bound.violations = %d, want %d", got, violations)
	}
	if res.Failures != violations {
		t.Errorf("Failures = %d, want %d (one per violation)", res.Failures, violations)
	}
}

// TestBoundsRecordedOnCacheHits asserts the warm path backfills StaticBound
// from the (deterministic) analysis even when the cached measurement predates
// it, without mutating the cache's canonical copy.
func TestBoundsRecordedOnCacheHits(t *testing.T) {
	cache := NewMemoryCache()
	cold := runSweep(t, Options{Launch: quickLaunch(), Cache: cache})
	warm := runSweep(t, Options{Launch: quickLaunch(), Cache: cache, CheckBounds: true})
	if warm.Launches != 0 || warm.CacheHits != len(cold.Results) {
		t.Fatalf("warm run: %d launches, %d hits, want 0/%d", warm.Launches, warm.CacheHits, len(cold.Results))
	}
	for i, r := range warm.Results {
		if r.StaticBound <= 0 || r.Measurement == nil || r.Measurement.StaticBound != r.StaticBound {
			t.Errorf("warm variant %s: bound not backfilled (result %g)", r.Name, r.StaticBound)
		}
		if cold.Results[i].StaticBound != r.StaticBound {
			t.Errorf("variant %s: cold bound %g != warm bound %g",
				r.Name, cold.Results[i].StaticBound, r.StaticBound)
		}
	}
}
