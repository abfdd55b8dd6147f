package cliutil

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"microtools/internal/campaign"
	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
)

// progressLine matches one Progress line; the wall-clock fields are left
// open, everything the engine reports is pinned by the caller.
var progressLine = regexp.MustCompile(`^(.*), elapsed [0-9hms.]+, eta [0-9hms.]+$`)

func progressLines(t *testing.T, out string) []string {
	t.Helper()
	var heads []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q does not end in elapsed/eta fields", line)
		}
		heads = append(heads, m[1])
	}
	return heads
}

// TestProgressLineFormat pins the progress observer's line: done/total,
// with "+" while the generator is still emitting, then the cached and
// failed counts; one line per update and nothing on End.
func TestProgressLineFormat(t *testing.T) {
	var buf bytes.Buffer
	p := Progress(&buf, "microtools")
	p.Update(telemetry.CampaignUpdate{Done: 1, Emitted: 3, Generating: true})
	p.Update(telemetry.CampaignUpdate{Done: 2, Emitted: 5, Generating: true, CacheHits: 1})
	p.Update(telemetry.CampaignUpdate{Done: 5, Emitted: 5, CacheHits: 2, Failed: 1, Launches: 2})
	p.End(nil)
	want := []string{
		"microtools: 1/3+ variants (0 cached, 0 failed)",
		"microtools: 2/5+ variants (1 cached, 0 failed)",
		"microtools: 5/5 variants (2 cached, 1 failed)",
	}
	got := progressLines(t, buf.String())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("progress lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestProgressFollowsCampaign attaches the observer to a real campaign:
// one line per finished variant plus the settled totals.
func TestProgressFollowsCampaign(t *testing.T) {
	ctx := context.Background()
	progs, err := core.GenerateFile(ctx, "../../specs/arith_hiding.xml", core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := campaign.RunPrograms(ctx, progs, campaign.NewOptions(
		campaign.WithLaunch(launcher.NewOptions(
			launcher.WithMachine("nehalem-dual/8"),
			launcher.WithArrayBytes(2048),
			launcher.WithReps(2, 1),
		)),
		campaign.WithWorkers(2),
		campaign.WithObservers(Progress(&buf, "microtools")),
	))
	if err != nil {
		t.Fatal(err)
	}
	got := progressLines(t, buf.String())
	if len(got) != len(progs)+1 {
		t.Fatalf("%d progress lines for %d variants, want one each plus the settled totals:\n%s", len(got), len(progs), buf.String())
	}
	// The last variant's line may still carry the "+" (the generator
	// closes concurrently); the settled line never does.
	if !strings.HasPrefix(got[len(got)-2], "microtools: 12/12") {
		t.Errorf("last variant line %q, want 12/12 done", got[len(got)-2])
	}
	if settled := "microtools: 12/12 variants (0 cached, 0 failed)"; res.Emitted != 12 || got[len(got)-1] != settled {
		t.Errorf("settled line %q (emitted %d), want %q", got[len(got)-1], res.Emitted, settled)
	}
}
