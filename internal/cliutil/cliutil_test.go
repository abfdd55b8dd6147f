package cliutil

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

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
	launch := launcher.DefaultOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 2048
	launch.OuterReps, launch.InnerReps = 2, 1
	res, err := campaign.RunPrograms(ctx, progs, campaign.Options{
		Launch:    launch,
		Workers:   2,
		Observers: []campaign.Observer{Progress(&buf, "microtools")},
	})
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

// TestCampaignOptionsMapsFlags pins the flag → campaign.Options mapping:
// each campaign flag lands on exactly one field, -retries N becomes an
// N+1 attempt budget (always set, so no flags means one attempt), and
// the adaptive knobs arm a plan on the launch only under -adaptive.
func TestCampaignOptionsMapsFlags(t *testing.T) {
	base := launcher.DefaultOptions()
	base.MachineName = "nehalem-dual/8"
	for _, tc := range []struct {
		name  string
		flags Campaign
		want  func(o *campaign.Options)
	}{
		{"defaults", Campaign{}, func(o *campaign.Options) {}},
		{"workers and fail-fast", Campaign{Workers: 3, FailFast: true},
			func(o *campaign.Options) {
				o.Workers = 3
				o.FailFast = true
			}},
		{"retries", Campaign{Retries: 2, Backoff: 5 * time.Millisecond, RetrySeed: 9},
			func(o *campaign.Options) {
				o.Retry = campaign.RetryPolicy{MaxAttempts: 3, Backoff: 5 * time.Millisecond, Seed: 9}
			}},
		{"deadline and quarantine", Campaign{Deadline: 30 * time.Second, Quarantine: 4},
			func(o *campaign.Options) {
				o.VariantDeadline = 30 * time.Second
				o.Quarantine = 4
			}},
		{"adaptive", Campaign{Adaptive: true, AdaptiveRCIW: 0.02, AdaptiveMin: 3, AdaptiveMax: 12, AdaptiveStable: 2},
			func(o *campaign.Options) {
				o.Launch.Adaptive = &launcher.Plan{MinReps: 3, MaxReps: 12, TargetRCIW: 0.02, StableRuns: 2}
			}},
		{"adaptive knobs without -adaptive", Campaign{AdaptiveRCIW: 0.02, AdaptiveMin: 3}, func(o *campaign.Options) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := campaign.Options{Launch: base, Retry: campaign.RetryPolicy{MaxAttempts: 1}}
			tc.want(&want)
			if got := tc.flags.Options(base); !reflect.DeepEqual(got, want) {
				t.Errorf("Options() =\n%+v\nwant\n%+v", got, want)
			}
			if base.Adaptive != nil {
				t.Fatal("Options armed the plan on the caller's launch options")
			}
		})
	}
}
