package cliutil

import (
	"bytes"
	"os"
	"testing"

	"microtools/internal/core"
	"microtools/internal/isa"
	"microtools/internal/machine"
)

// TestWriteDataflow pins the bytes and the defect count of the one
// dataflow renderer: the table for one kernel, one line per kernel for
// several, and the indented JSON array. Each golden is the output of
// `microtools analyze [-json] <kernels>` run in testdata/. The dead
// kernel carries one dead register write and one self-move.
func TestWriteDataflow(t *testing.T) {
	mach, err := machine.ByName("nehalem-dual")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden  string
		kernels []string
		json    bool
		defects int
	}{
		{"table.golden", []string{"loadstore_u3_SLS_dead"}, false, 2},
		{"lines.golden", []string{"loadstore_u1_L", "loadstore_u3_SLS", "loadstore_u3_SLS_dead"}, false, 2},
		{"json.golden", []string{"loadstore_u1_L"}, true, 0},
	} {
		var kernels []*isa.Program
		for _, name := range tc.kernels {
			k, err := core.LoadKernelFile("testdata/"+name+".s", "")
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, k)
		}
		want, err := os.ReadFile("testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		defects, err := WriteDataflow(&got, kernels, mach.Arch, tc.json)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs:\n got: %q\nwant: %q", tc.golden, got.String(), want)
		}
		if defects != tc.defects {
			t.Errorf("%s: %d defects, want %d", tc.golden, defects, tc.defects)
		}
	}
}
