package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	api "microtools/api/v1"
	"microtools/internal/campaign"
	"microtools/internal/launcher"
)

// TestCampaignOptionsMapsRequest pins the wire request → campaign.Options
// mapping: the launch overrides, the campaign knobs and the resilience
// budgets each land on exactly one field, and a job always gets the
// shared cache, the daemon's instruments and two observers (the live
// tracker campaign and the job's SSE feed).
func TestCampaignOptionsMapsRequest(t *testing.T) {
	cache := campaign.NewMemoryCache()
	d, err := New(context.Background(), Options{Cache: cache, Launch: quickLaunch()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })

	for _, tc := range []struct {
		name string
		req  api.JobRequest
		want func(o *campaign.Options)
	}{
		{"defaults", api.JobRequest{}, func(o *campaign.Options) {}},
		{"launch overrides", api.JobRequest{Machine: "sandybridge", ArrayBytes: 8192, OuterReps: 3, InnerReps: 2},
			func(o *campaign.Options) {
				o.Launch.MachineName = "sandybridge"
				o.Launch.ArrayBytes = 8192
				o.Launch.OuterReps = 3
				o.Launch.InnerReps = 2
			}},
		{"campaign knobs", api.JobRequest{Workers: 3, FailFast: true, Quarantine: 2, CheckBounds: true},
			func(o *campaign.Options) {
				o.Workers = 3
				o.FailFast = true
				o.Quarantine = 2
				o.CheckBounds = true
			}},
		{"retries", api.JobRequest{Retries: 2, RetryBackoffMS: 7, Seed: 11},
			func(o *campaign.Options) {
				o.Retry = campaign.RetryPolicy{MaxAttempts: 3, Backoff: 7 * time.Millisecond, Seed: 11}
			}},
		{"backoff without retries", api.JobRequest{RetryBackoffMS: 7, Seed: 11}, func(o *campaign.Options) {}},
		{"deadline", api.JobRequest{VariantDeadlineMS: 1500},
			func(o *campaign.Options) { o.VariantDeadline = 1500 * time.Millisecond }},
		{"negative deadline", api.JobRequest{VariantDeadlineMS: -5}, func(o *campaign.Options) {}},
		{"adaptive", api.JobRequest{Adaptive: &api.AdaptivePlan{MinReps: 3, MaxReps: 9, TargetRCIW: 0.02, StableRuns: 2}},
			func(o *campaign.Options) {
				o.Launch.Adaptive = &launcher.Plan{MinReps: 3, MaxReps: 9, TargetRCIW: 0.02, StableRuns: 2}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := campaign.Options{Launch: quickLaunch(), Cache: cache}
			want.Launch.Metrics = d.metrics
			tc.want(&want)

			j := &job{req: tc.req, status: api.JobStatus{Name: "options-" + tc.name}}
			got := d.campaignOptions(j)
			if len(got.Observers) != 2 {
				t.Errorf("%d observers, want the tracker campaign and the SSE feed", len(got.Observers))
			}
			got.Observers = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("campaignOptions(%+v) =\n%+v\nwant\n%+v", tc.req, got, want)
			}
		})
	}
}
