package campaign

import (
	"context"
	"testing"

	"microtools/internal/core"
	"microtools/internal/isa"
	"microtools/internal/launcher"
)

// TestCacheKeysPinned compares cache keys against hex digests recorded
// from the shipped key recipe. The other key tests compare keys with each
// other, so a change to the hashed bytes (a launcher.Options field added,
// removed or renamed — Verbose and Tracer are encoded, as null — or a new
// key recipe) would pass them while every on-disk cache went cold.
func TestCacheKeysPinned(t *testing.T) {
	kernel, err := core.LoadKernel(kernelAsm("k", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := core.GenerateFile(context.Background(), "../../specs/loadstore_movaps.xml", core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	variant, err := progs[0].Lowered()
	if err != nil {
		t.Fatal(err)
	}
	planned := quickLaunch()
	plan := launcher.Plan{}.Resolve(planned.OuterReps)
	planned.Adaptive = &plan

	for _, tc := range []struct {
		name   string
		kernel *isa.Program
		opts   launcher.Options
		want   string
	}{
		{"kernel/quick", kernel, quickLaunch(), "aa122d47a1931a14111fd52bc92c26790e137c72a01913cf0121e721ff9bf91a"},
		{"kernel/plan", kernel, planned, "400c349c9ff3ebb0942ab70226ca109f47e79585c2a7870f2fa62e85f162c0ca"},
		{progs[0].Name + "/quick", variant, quickLaunch(), "36c3bb677c7cfcd1b43c2193dbd11d4678f0522ee1d14a0dbd1dbb5decdde3aa"},
	} {
		got, err := Key(tc.kernel, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: key %s, want %s: on-disk caches would go cold", tc.name, got, tc.want)
		}
	}
}
