package main

import (
	"bytes"
	"context"
	"testing"
)

// TestReplayMatchesCampaign holds the traced replay to its contract: it
// reproduces campaign.Run's ranking and report bit for bit, and counts
// the same launches and repetitions.
func TestReplayMatchesCampaign(t *testing.T) {
	// The quick workload's settings over a smaller spec, so the check runs
	// in seconds.
	base, err := workloadByName("fig6-quick-cold")
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.specs = []string{"specs/stride_study.xml"}
	st, err := w.load("..", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	want, err := runStudy(ctx, st, dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, _, err := freshCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var l layers
	got, err := replay(ctx, st, cache, &l)
	if err != nil {
		t.Fatal(err)
	}
	if got.digest != want.digest || !bytes.Equal(got.report, want.report) {
		t.Errorf("replay diverged from campaign.Run: digest %s, want %s", got.digest, want.digest)
	}
	if l.launches != want.launches || l.reps != want.reps {
		t.Errorf("replay made %d launches, %d reps; campaign.Run %d, %d", l.launches, l.reps, want.launches, want.reps)
	}
}

// TestGoldenHoldsUnderHeldOutSeed runs the correctness gate under the
// held-out seed: the quick workload's replay must reproduce its golden
// digest and simulated fingerprint exactly.
func TestGoldenHoldsUnderHeldOutSeed(t *testing.T) {
	w, err := workloadByName("fig6-quick-cold")
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadGolden(w.name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.load("..", heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	cache, _, err := freshCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var l layers
	out, err := replay(context.Background(), st, cache, &l)
	if err != nil {
		t.Fatal(err)
	}
	if out.digest != want.Digest {
		t.Errorf("digest %s under seed %d, golden %s", out.digest, heldOutSeed, want.Digest)
	}
	if got := l.fingerprint(); got != want.Fingerprint {
		t.Errorf("fingerprint %+v under seed %d, golden %+v", got, heldOutSeed, want.Fingerprint)
	}
}
