package main

import (
	"strings"
	"testing"
)

// TestCheckExperimentFlags: -experiment and -all accept the flags that
// apply to them (-workers among them) and reject each study-only flag by
// name.
func TestCheckExperimentFlags(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want string // "" = accepted, else the flag the error must name
	}{
		{nil, ""},
		{[]string{"workers", "quick", "v", "no-chart", "csv", "outdir", "telemetry-addr", "pprof"}, ""},
		{[]string{"cache"}, "-cache"},
		{[]string{"fail-fast"}, "-fail-fast"},
		{[]string{"retries"}, "-retries"},
		{[]string{"retry-backoff"}, "-retry-backoff"},
		{[]string{"retry-seed"}, "-retry-seed"},
		{[]string{"deadline"}, "-deadline"},
		{[]string{"quarantine"}, "-quarantine"},
		{[]string{"adaptive"}, "-adaptive"},
		{[]string{"adaptive-rciw"}, "-adaptive-rciw"},
		{[]string{"adaptive-min"}, "-adaptive-min"},
		{[]string{"adaptive-max"}, "-adaptive-max"},
		{[]string{"adaptive-stable"}, "-adaptive-stable"},
		{[]string{"counters"}, "-counters"},
		{[]string{"trace"}, "-trace"},
		{[]string{"report"}, "-report"},
		{[]string{"machine"}, "-machine"},
		{[]string{"size"}, "-size"},
		{[]string{"screen"}, "-screen"},
		{[]string{"workers", "quick", "machine"}, "-machine"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkExperimentFlags(set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.set, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%v: error %v, want one naming %s", tc.set, err, tc.want)
		}
	}
}
