package isa_test

import (
	"context"
	"path/filepath"
	"testing"

	"microtools/internal/core"
	"microtools/internal/isa"
)

// TestDecodedUopsExactlySized decodes every variant of every shipped spec
// on both microarchitectures and requires each flat µop array to be
// exactly full: the decode sizes it by its own µop count rule.
func TestDecodedUopsExactlySized(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	n := 0
	for _, spec := range specs {
		progs, err := core.GenerateFile(context.Background(), spec, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for i := range progs {
			for _, arch := range []*isa.Arch{isa.Nehalem(), isa.SandyBridge()} {
				dp, err := progs[i].Parsed.Decoded(arch)
				if err != nil {
					t.Fatalf("%s/%s: %v", progs[i].Name, arch.Name, err)
				}
				if l, c := isa.UopsLenCap(dp); l != c {
					t.Fatalf("%s/%s: µop array len %d, cap %d", progs[i].Name, arch.Name, l, c)
				}
			}
		}
		n += len(progs)
	}
	t.Logf("%d variants of %d specs decode exactly sized", n, len(specs))
}
