package api

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type,
// and asserts deep equality — the wire contract loses nothing.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v)).Interface()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	got := reflect.ValueOf(out).Elem().Interface()
	if !reflect.DeepEqual(got, v) {
		t.Errorf("round trip changed %T:\n in: %+v\nout: %+v\nwire: %s", v, v, got, data)
	}
}

func sampleStatus() JobStatus {
	return JobStatus{
		SchemaVersion:   SchemaVersion,
		ID:              "j-7",
		Tenant:          "team-a",
		Name:            "team-a/j-7",
		State:           StateRunning,
		SubmittedUnixMS: 1700000000000,
		StartedUnixMS:   1700000000100,
		Progress:        Progress{Done: 2, Emitted: 4, Generating: true, CacheHits: 1, Launches: 1},
	}
}

func TestWireShapesRoundTrip(t *testing.T) {
	roundTrip(t, Error{SchemaVersion: SchemaVersion, Code: CodeOverQuota, Message: "tenant team-a has 4 jobs in flight"})
	roundTrip(t, JobRequest{
		SchemaVersion: SchemaVersion, Tenant: "team-a", Name: "sweep", Spec: "<kernel/>",
		Seed: 42, Machine: "nehalem-dual/8", ArrayBytes: 1 << 12, OuterReps: 3, InnerReps: 2,
		Workers: 4, FailFast: true, Retries: 2, RetryBackoffMS: 10,
		VariantDeadlineMS: 5000, Quarantine: 3, CheckBounds: true,
	})
	roundTrip(t, sampleStatus())
	roundTrip(t, VariantEvent{SchemaVersion: SchemaVersion, JobID: "j-7", Seq: 3, Type: EventProgress, Status: sampleStatus()})
	roundTrip(t, JobResult{
		SchemaVersion: SchemaVersion,
		Job:           sampleStatus(),
		Serving:       &ServingStats{Launches: 1, CacheHits: 1, CacheHitRatio: 0.5, Retries: 1},
		Campaign: &CampaignResult{
			Emitted: 2,
			Variants: []VariantResult{
				{Index: 0, Name: "k_u1", Value: 12.5, Unit: "cyc", ValuePerElement: 0.78,
					Iterations: 1024, StaticBoundValue: 8,
					Stability: Stability{N: 3, Mean: 12.5, CV: 0.01, RCIW: 0.02}},
				{Index: 1, Name: "k_u2", Error: "launch: injected fault"},
			},
		},
	})
}

// TestErrorBodyIsAGoError pins the client-side error contract: the wire
// Error implements error with the code visible in the text.
func TestErrorBodyIsAGoError(t *testing.T) {
	var err error = &Error{SchemaVersion: SchemaVersion, Code: CodeDraining, Message: "server is shutting down"}
	if !strings.Contains(err.Error(), CodeDraining) {
		t.Errorf("error text %q lacks the machine code", err.Error())
	}
}

// TestIdentityFreeCampaignResult pins the bit-identical-results guarantee:
// two JobResults for the same campaign outcome but different jobs carry
// byte-identical Campaign sections.
func TestIdentityFreeCampaignResult(t *testing.T) {
	campaign := CampaignResult{Emitted: 1,
		Variants: []VariantResult{{Name: "k", Value: 3, Unit: "cyc"}}}
	a, err := json.Marshal(campaign)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("campaign marshaling is not deterministic:\n%s\n%s", a, b)
	}
	// Identity lives in JobStatus and serving accounting in ServingStats;
	// the campaign payload must embed neither (field walk over both the
	// result and its variants).
	banned := map[string]bool{
		"ID": true, "Tenant": true, "SubmittedUnixMS": true, "StartedUnixMS": true,
		"FinishedUnixMS": true, "CacheHit": true, "CacheHits": true, "Launches": true,
		"Attempts": true, "CacheHitRatio": true, "Retries": true,
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(CampaignResult{}), reflect.TypeOf(VariantResult{})} {
		for _, f := range reflect.VisibleFields(typ) {
			if banned[f.Name] {
				t.Errorf("%s carries identity or serving field %s", typ.Name(), f.Name)
			}
		}
	}
}

// TestExplicitTagsEverywhere walks every wire struct and asserts each
// exported field carries an explicit json tag (the L012 invariant, pinned
// here against refactors that bypass the linter).
func TestExplicitTagsEverywhere(t *testing.T) {
	for _, v := range []any{Error{}, JobRequest{}, JobStatus{}, Progress{}, VariantEvent{}, Stability{}, VariantResult{}, CampaignResult{}, ServingStats{}, JobResult{}} {
		rt := reflect.TypeOf(v)
		for _, f := range reflect.VisibleFields(rt) {
			if f.Tag.Get("json") == "" {
				t.Errorf("%s.%s lacks an explicit json tag", rt.Name(), f.Name)
			}
		}
	}
}

// referenceStability is the nested encoding Stability.MarshalJSON
// replaced: the stabilityWire struct through json.Marshal.
func referenceStability(s Stability) ([]byte, error) {
	w := stabilityWire{
		N: s.N, Mean: s.Mean, CV: s.CV,
		TargetRCIW: s.TargetRCIW, MissedTarget: s.MissedTarget,
		Reps: s.Reps, StopReason: s.StopReason,
	}
	if !math.IsInf(s.RCIW, 0) && !math.IsNaN(s.RCIW) {
		r := s.RCIW
		w.RCIW = &r
	}
	return json.Marshal(w)
}

// TestStabilityMarshalMatchesReference pins the appended encoding to the
// reference byte for byte — tiny, huge, negative and exponent-boundary
// floats, a null RCIW, every omitempty field — and pins the error on a
// non-finite mean, cv or target.
func TestStabilityMarshalMatchesReference(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.02, 12.5, -3.75, 1e-6, 9.99e-7, 1e-7,
		-1.5e-9, 5e-324, 1e20, 1e21, -1e21, 123456789012345678, math.MaxFloat64,
		-math.MaxFloat64, 1.0 / 3, 2.5e-300,
	}
	var cases []Stability
	for i, f := range floats {
		g := floats[(i+7)%len(floats)]
		cases = append(cases,
			Stability{N: i, Mean: f, CV: g, RCIW: f},
			Stability{N: -i, Mean: g, CV: f, RCIW: math.Inf(1), TargetRCIW: f},
			Stability{N: 3, Mean: f, CV: f, RCIW: math.Inf(-1), TargetRCIW: g,
				MissedTarget: true, Reps: i - 5, StopReason: "budget"},
			Stability{Mean: f, RCIW: math.NaN(), MissedTarget: i%2 == 0, Reps: i},
		)
	}
	for _, reason := range []string{"target", "a<b>&c", `q"\`, "nl\n\x00", "ünï", "bad\xff", "sep\u2028"} {
		cases = append(cases, Stability{N: 2, Mean: 1, RCIW: 0.5, StopReason: reason})
	}
	for _, s := range cases {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want, err := referenceStability(s)
		if err != nil {
			t.Fatalf("%+v: reference: %v", s, err)
		}
		if string(got) != string(want) {
			t.Errorf("%+v:\n got %s\nwant %s", s, got, want)
		}
	}
	for _, s := range []Stability{
		{N: 2, Mean: math.NaN(), RCIW: 1},
		{N: 2, Mean: 1, CV: math.Inf(1)},
		{N: 2, Mean: 1, CV: 0.5, TargetRCIW: math.Inf(-1)},
	} {
		_, err := s.MarshalJSON()
		_, wantErr := referenceStability(s)
		var got, want *json.UnsupportedValueError
		if !errors.As(err, &got) || !errors.As(wantErr, &want) || got.Error() != want.Error() {
			t.Errorf("%+v: error %v, want %v", s, err, wantErr)
		}
	}
}
