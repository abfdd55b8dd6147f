package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/cliutil"
	"microtools/internal/core"
	"microtools/internal/isa"
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

// TestAnalyzeReadsEveryFunction: analyze reads an assembly file holding
// several functions as one kernel per function, in file order, so three
// concatenated movaps variants give three report lines and a three-element
// JSON array.
func TestAnalyzeReadsEveryFunction(t *testing.T) {
	ctx := context.Background()
	progs, err := core.GenerateFile(ctx, filepath.Join("..", "..", "specs", "loadstore_movaps.xml"), core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	var names []string
	for _, p := range progs[:3] {
		text, err := p.Assembly()
		if err != nil {
			t.Fatal(err)
		}
		src.WriteString(text)
		names = append(names, p.Name)
	}
	path := filepath.Join(t.TempDir(), "three.s")
	if err := os.WriteFile(path, []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	kernels, err := analyzeKernels(ctx, []string{path}, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) != 3 {
		t.Fatalf("%d kernels, want 3", len(kernels))
	}
	var lines bytes.Buffer
	if _, err := cliutil.WriteDataflow(&lines, kernels, isa.Nehalem(), false); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(lines.String(), "\n"), "\n")
	if len(got) != 3 {
		t.Fatalf("%d report lines, want 3:\n%s", len(got), lines.String())
	}
	for i, line := range got {
		if !strings.HasPrefix(line, names[i]+" ") {
			t.Errorf("line %d is %q, want kernel %s", i, line, names[i])
		}
	}
	var js bytes.Buffer
	if _, err := cliutil.WriteDataflow(&js, kernels, isa.Nehalem(), true); err != nil {
		t.Fatal(err)
	}
	var reports []map[string]any
	if err := json.Unmarshal(js.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d JSON reports, want 3", len(reports))
	}
}
