package api

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// The oracle of the wire codec is encoding/json over method-free mirror
// types: refJobResult and its parts for the result document,
// plainVariantEvent for the event frame (JobStatus has no methods), and
// refStability, which decodes and encodes exactly as Stability did before
// the codec (stabilityWire through encoding/json).

type refJobResult struct {
	SchemaVersion string        `json:"schema_version"`
	Job           JobStatus     `json:"job"`
	Serving       *ServingStats `json:"serving,omitempty"`
	Campaign      *refCampaign  `json:"campaign,omitempty"`
}

type refCampaign struct {
	Emitted  int          `json:"emitted"`
	Variants []refVariant `json:"variants"`
}

type refVariant struct {
	Index            int          `json:"index"`
	Name             string       `json:"name"`
	Value            float64      `json:"value"`
	Unit             string       `json:"unit"`
	ValuePerElement  float64      `json:"value_per_element"`
	Iterations       int64        `json:"iterations"`
	StaticBoundValue float64      `json:"static_bound_value,omitempty"`
	Stability        refStability `json:"stability"`
	Error            string       `json:"error,omitempty"`
}

type refStability Stability

func (s *refStability) UnmarshalJSON(b []byte) error {
	var w stabilityWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	s.N, s.Mean, s.CV = w.N, w.Mean, w.CV
	s.TargetRCIW, s.MissedTarget = w.TargetRCIW, w.MissedTarget
	s.Reps, s.StopReason = w.Reps, w.StopReason
	if w.RCIW != nil {
		s.RCIW = *w.RCIW
	} else {
		s.RCIW = math.Inf(1)
	}
	return nil
}

func (s refStability) MarshalJSON() ([]byte, error) { return referenceStability(Stability(s)) }

func toRef(r JobResult) refJobResult {
	out := refJobResult{SchemaVersion: r.SchemaVersion, Job: r.Job, Serving: r.Serving}
	if c := r.Campaign; c != nil {
		out.Campaign = &refCampaign{Emitted: c.Emitted}
		if c.Variants != nil {
			out.Campaign.Variants = make([]refVariant, len(c.Variants))
		}
		for i, v := range c.Variants {
			out.Campaign.Variants[i] = refVariant{v.Index, v.Name, v.Value, v.Unit, v.ValuePerElement,
				v.Iterations, v.StaticBoundValue, refStability(v.Stability), v.Error}
		}
	}
	return out
}

func fromRef(r refJobResult) JobResult {
	out := JobResult{SchemaVersion: r.SchemaVersion, Job: r.Job, Serving: r.Serving}
	if c := r.Campaign; c != nil {
		out.Campaign = &CampaignResult{Emitted: c.Emitted}
		if c.Variants != nil {
			out.Campaign.Variants = make([]VariantResult, len(c.Variants))
		}
		for i, v := range c.Variants {
			out.Campaign.Variants[i] = VariantResult{v.Index, v.Name, v.Value, v.Unit, v.ValuePerElement,
				v.Iterations, v.StaticBoundValue, Stability(v.Stability), v.Error}
		}
	}
	return out
}

// sampleJobs are the seed documents: a cold job, its cache-warm repeat, a
// failed job with a job error and a variant error, and an adaptive job.
func sampleJobs() []JobResult {
	variants := func() []VariantResult {
		return []VariantResult{
			{Index: 0, Name: "loadstore_u1_L", Value: 2112, Unit: "core-cycles", ValuePerElement: 1.03125,
				Iterations: 2048, StaticBoundValue: 2048,
				Stability: Stability{N: 2, Mean: 2112.5, CV: 0.00033472803347280335, RCIW: 0.0030069772841946126}},
			{Index: 1, Name: "loadstore_u8_SLSSLSSL", Value: 4608.25, Unit: "core-cycles", ValuePerElement: 0.28125,
				Iterations: 256, StaticBoundValue: 1e-7,
				Stability: Stability{N: 2, Mean: 4608.25, CV: 0, RCIW: 0}},
			{Index: 2, Name: "k", Value: 1e21, Unit: "seconds", ValuePerElement: 5e-324, Iterations: -1,
				Stability: Stability{N: 1, Mean: -3.75, CV: 1.5e-9, RCIW: math.Inf(1)}},
		}
	}
	status := JobStatus{SchemaVersion: SchemaVersion, ID: "j-1", Tenant: "perfbench", Name: "perfbench/j-1",
		State: StateDone, SubmittedUnixMS: 1760000000000, StartedUnixMS: 1760000000001, FinishedUnixMS: 1760000000412,
		Progress: Progress{Done: 3, Emitted: 3, Launches: 3}}
	cold := JobResult{SchemaVersion: SchemaVersion, Job: status,
		Serving:  &ServingStats{Launches: 3},
		Campaign: &CampaignResult{Emitted: 3, Variants: variants()}}

	warm := cold
	warm.Job.ID, warm.Job.Progress = "j-2", Progress{Done: 3, Emitted: 3, CacheHits: 3}
	warm.Serving = &ServingStats{CacheHits: 3, CacheHitRatio: 1}
	warm.Campaign = &CampaignResult{Emitted: 3, Variants: variants()}

	failed := cold
	failed.Job.ID, failed.Job.State = "j-3", StateFailed
	failed.Job.Progress = Progress{Done: 3, Emitted: 3, Failed: 1, Launches: 4, Retries: 2}
	failed.Job.Error = &Error{SchemaVersion: SchemaVersion, Code: CodeCampaignFailed,
		Message: `campaign: variant "k_u2": launch: injected fault <a&b>`}
	failed.Serving = &ServingStats{Launches: 4, Failures: 1, Retries: 2, Quarantined: 1, KeyErrors: 1}
	failed.Campaign = &CampaignResult{Emitted: 3, Variants: variants()}
	failed.Campaign.Variants[1].Error = "launch: injected fault"

	adaptive := cold
	adaptive.Job.ID = "j-4"
	adaptive.Serving = &ServingStats{Launches: 3, RepsSaved: 6, RepsTopUp: 2, RepsExecuted: 10}
	adaptive.Campaign = &CampaignResult{Emitted: 3, Variants: variants()}
	for i, reason := range []string{"target", "stable", "budget"} {
		s := &adaptive.Campaign.Variants[i].Stability
		s.TargetRCIW, s.Reps, s.StopReason = 0.05, 2+i, reason
		s.MissedTarget = reason == "budget"
	}

	queued := JobResult{SchemaVersion: SchemaVersion, Job: JobStatus{SchemaVersion: SchemaVersion, ID: "j-5",
		Tenant: "t", Name: "t/j-5", State: StateQueued, SubmittedUnixMS: 1}}
	return []JobResult{cold, warm, failed, adaptive, queued}
}

// wireCorpus is the seed documents' encodings, their event frames and
// stability objects, and inputs outside the canonical subset: escapes,
// unknown, duplicate and case-mismatched keys, ints written as floats or
// out of range, nulls, white space, non-ASCII and malformed JSON.
func wireCorpus(t testing.TB) [][]byte {
	var corpus [][]byte
	for _, r := range sampleJobs() {
		doc, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, doc)
		ev, err := VariantEvent{SchemaVersion: SchemaVersion, JobID: r.Job.ID, Seq: 514, Type: EventEnd, Status: r.Job}.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, ev)
		if r.Campaign != nil {
			for _, v := range r.Campaign.Variants {
				s, err := v.Stability.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				corpus = append(corpus, s)
			}
		}
	}
	for _, s := range []string{
		``, `null`, `[]`, `"x"`, `1`, `{}`, `{}x`, ` { "schema_version" : "v1" } ` + "\n",
		`{"schema_version":"v\u0031"}`, `{"schema_version":"v1","extra":1}`,
		`{"schema_version":"v1","schema_version":"v2"}`, `{"Schema_Version":"v1"}`, `{"schema_version":1}`,
		`{"schema_version":null}`, `{"schema_version":"vé"}`, `{"schema_version":"a` + "\t" + `"}`,
		`{"job":null}`, `{"job":{"id":1}}`, `{"job":{"progress":{"done":1.0}}}`, `{"job":{"progress":{"done":1e0}}}`,
		`{"job":{"progress":{"generating":1}}}`, `{"job":{"started_unix_ms":9223372036854775808}}`,
		`{"job":{"submitted_unix_ms":-0,"error":{"code":"x","message":""}}}`, `{"job":{"error":null}}`,
		`{"serving":null}`, `{"serving":{"cache_hit_ratio":1e400}}`, `{"serving":{"cache_hit_ratio":-0}}`,
		`{"campaign":{"emitted":99999999999999999999}}`, `{"campaign":{"emitted":1.5}}`,
		`{"campaign":{"emitted":0,"variants":[]}}`, `{"campaign":{"emitted":2,"variants":null}}`,
		`{"campaign":{"variants":[{},{}]}}`, `{"campaign":{"emitted":1000000,"variants":[{}]}}`,
		`{"campaign":{"variants":[{"value":-0,"unit":"x"},{"unit":"x"},{"unit":"y"}]}}`,
		`{"campaign":{"variants":[{"stability":null}]}}`, `{"campaign":{"variants":[{"index":01}]}}`,
		`{"campaign":{"variants":[{"value":1.}]}}`, `{"campaign":{"variants":[{"value":.5}]}}`,
		`{"campaign":{"variants":[{"value":-}]}}`, `{"campaign":{"variants":[{"value":1e}]}}`,
		`{"campaign":{"variants":[{"value":1E+2,"iterations":-12}]}}`, `{"campaign":{"variants":[{}],}}`,
		`{"campaign":{"variants":[{"stability":{"n":1,"rciw":0.5},"stability":{"n":2}}]}}`,
		`{"n":2,"mean":1,"cv":0,"rciw":null}`, `{"n":2,"mean":1,"cv":0}`, `{"n":2.0}`, `{"rciw":"x"}`,
		`{"n":2,"rciw":0.5,"rciw":null}`, `{"missed_target":true,"stop_reason":"budget","reps":3,"target_rciw":0.05}`,
		`{"schema_version":"v1","job_id":"j-1","seq":3,"type":"progress","status":{"state":"running"}}`,
		`{"seq":1.0}`, `{"seq":"3"}`, `{"status":null}`, `{"status":{"progress":{"done":1}},"status":{}}`,
	} {
		corpus = append(corpus, []byte(s))
	}
	return corpus
}

// checkWire runs the three decoders on data against the oracle — the
// same value and the same error-or-not — and re-encodes what decodes
// against json.Marshal of the mirror, byte for byte.
func checkWire(t *testing.T, data []byte) {
	t.Helper()
	var res JobResult
	err := res.UnmarshalJSON(data)
	var ref refJobResult
	refErr := json.Unmarshal(data, &ref)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("JobResult %q: error %v, encoding/json %v", data, err, refErr)
	}
	var viaJSON JobResult
	if jsonErr := json.Unmarshal(data, &viaJSON); (jsonErr == nil) != (err == nil) || !reflect.DeepEqual(viaJSON, res) {
		t.Fatalf("JobResult %q: UnmarshalJSON %+v, %v; json.Unmarshal %+v, %v", data, res, err, viaJSON, jsonErr)
	}
	if err == nil {
		if want := fromRef(ref); !reflect.DeepEqual(res, want) {
			t.Fatalf("JobResult %q:\n got %+v\nwant %+v", data, res, want)
		}
		checkEncoding(t, res, toRef(res))
	}

	var ev VariantEvent
	err = ev.UnmarshalJSON(data)
	var plain plainVariantEvent
	refErr = json.Unmarshal(data, &plain)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("VariantEvent %q: error %v, encoding/json %v", data, err, refErr)
	}
	if err == nil {
		if !reflect.DeepEqual(ev, VariantEvent(plain)) {
			t.Fatalf("VariantEvent %q:\n got %+v\nwant %+v", data, ev, plain)
		}
		checkEncoding(t, ev, plainVariantEvent(ev))
	}

	var s Stability
	err = s.UnmarshalJSON(data)
	var rs refStability
	refErr = rs.UnmarshalJSON(data)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("Stability %q: error %v, want %v", data, err, refErr)
	}
	if err == nil {
		if !reflect.DeepEqual(s, Stability(rs)) {
			t.Fatalf("Stability %q:\n got %+v\nwant %+v", data, s, rs)
		}
		checkEncoding(t, s, rs)
	}
}

// checkEncoding compares v's MarshalJSON, and json.Marshal of v (which
// compacts what the method returns), with json.Marshal of its mirror:
// the same bytes, or errors carrying the same UnsupportedValueError.
func checkEncoding(t *testing.T, v json.Marshaler, mirror any) {
	t.Helper()
	want, wantErr := json.Marshal(mirror)
	got, err := v.MarshalJSON()
	viaJSON, jsonErr := json.Marshal(v)
	if wantErr != nil {
		var w, g, j *json.UnsupportedValueError
		if !errors.As(wantErr, &w) || !errors.As(err, &g) || !errors.As(jsonErr, &j) || g.Error() != w.Error() || j.Error() != w.Error() {
			t.Fatalf("%T: errors %v / %v, want %v", v, err, jsonErr, wantErr)
		}
		return
	}
	if err != nil || jsonErr != nil || string(got) != string(want) || string(viaJSON) != string(want) {
		t.Fatalf("%T:\n got %s (%v)\njson %s (%v)\nwant %s", v, got, err, viaJSON, jsonErr, want)
	}
}

// TestWireCorpusMatchesEncodingJSON runs the oracle over the fixed corpus.
func TestWireCorpusMatchesEncodingJSON(t *testing.T) {
	for _, data := range wireCorpus(t) {
		checkWire(t, data)
	}
}

// FuzzWireJSON runs the oracle over arbitrary bytes, seeded with the
// fixed corpus.
func FuzzWireJSON(f *testing.F) {
	for _, data := range wireCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(checkWire)
}

// TestWireEncodeMatchesReference pins the encoders on values no decoded
// document holds: non-finite floats in every float field (an
// UnsupportedValueError, or null for rciw), strings that need escaping,
// and a nil variant list (the service always sends an empty one).
func TestWireEncodeMatchesReference(t *testing.T) {
	for i, r := range sampleJobs() {
		checkEncoding(t, r, toRef(r))
		if r.Campaign != nil {
			r.Campaign = &CampaignResult{Emitted: r.Campaign.Emitted}
			checkEncoding(t, r, toRef(r))
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for field := 0; field < 6; field++ {
				r := sampleJobs()[i]
				if r.Campaign == nil {
					continue
				}
				v := &r.Campaign.Variants[field%3]
				*[]*float64{&r.Serving.CacheHitRatio, &v.Value, &v.ValuePerElement, &v.StaticBoundValue,
					&v.Stability.Mean, &v.Stability.TargetRCIW}[field] = bad
				checkEncoding(t, r, toRef(r))
			}
		}
	}
	for _, text := range []string{"", "plain", "a<b>&c", `q"\`, "nl\n\x00", "ünï", "bad\xff", "sep\u2028"} {
		r := sampleJobs()[2]
		r.SchemaVersion, r.Job.Name, r.Job.Error.Message = text, text, text
		r.Campaign.Variants[0].Name, r.Campaign.Variants[1].Error = text, text
		r.Campaign.Variants[2].Stability.StopReason = text
		checkEncoding(t, r, toRef(r))
		ev := VariantEvent{SchemaVersion: text, JobID: text, Type: text, Seq: -7, Status: r.Job}
		checkEncoding(t, ev, plainVariantEvent(ev))
	}
}

// TestWireDecodeErrorsUnchanged pins the error text of non-canonical
// documents to what encoding/json reported for the real types before
// they had methods: the fallback's mirror type never shows.
func TestWireDecodeErrorsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		data string
		v    json.Unmarshaler
		want string
	}{
		{`{"schema_version":1}`, new(JobResult), "json: cannot unmarshal number into Go struct field JobResult.schema_version of type string"},
		{`"x"`, new(JobResult), "json: cannot unmarshal string into Go value of type api.JobResult"},
		{`{"job":{"id":1}}`, new(JobResult), "json: cannot unmarshal number into Go struct field JobStatus.job.id of type string"},
		{`{"campaign":{"emitted":1.5}}`, new(JobResult), "json: cannot unmarshal number 1.5 into Go struct field CampaignResult.campaign.emitted of type int"},
		{`{"campaign":{"variants":[{"stability":{"n":"2"}}]}}`, new(JobResult), "json: cannot unmarshal string into Go struct field VariantResult.campaign.variants.stability.n of type int"},
		{`{"seq":1.0}`, new(VariantEvent), "json: cannot unmarshal number 1.0 into Go struct field VariantEvent.seq of type int64"},
		{`[1]`, new(VariantEvent), "json: cannot unmarshal array into Go value of type api.VariantEvent"},
		{`{"n":2.5}`, new(Stability), "json: cannot unmarshal number 2.5 into Go struct field stabilityWire.n of type int"},
		{`{"schema_version":"v1",}`, new(JobResult), "invalid character '}' looking for beginning of object key string"},
	} {
		err := tc.v.UnmarshalJSON([]byte(tc.data))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%T %s: error %v, want %s", tc.v, tc.data, err, tc.want)
		}
	}
}
