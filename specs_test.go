package microtools

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"microtools/internal/core"
)

// TestShippedSpecsGenerate ensures every XML description under specs/
// parses, runs the full pipeline, and yields variants whose assembly
// reloads through the launcher's input path.
func TestShippedSpecsGenerate(t *testing.T) {
	paths, err := filepath.Glob("specs/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the shipped spec library, found %d files", len(paths))
	}
	wantCounts := map[string]int{
		"loadstore_movaps.xml":          510, // the paper's §5.1 count
		"loadstore_movess_abstract.xml": 4 * (2 + 4 + 8 + 16),
		"stride_study.xml":              6,
		"arith_hiding.xml":              12,
		"stencil3.xml":                  2,
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := GenerateString(context.Background(), string(data), GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want, ok := wantCounts[filepath.Base(path)]; ok && len(progs) != want {
			t.Errorf("%s: generated %d variants, want %d", path, len(progs), want)
		}
		for i, p := range progs {
			if i%17 != 0 {
				continue // sample large families
			}
			asmText, err := p.Assembly()
			if err != nil {
				t.Errorf("%s: %s does not render: %v", path, p.Name, err)
				continue
			}
			if _, err := core.LoadKernel(asmText, ""); err != nil {
				t.Errorf("%s: %s does not reload: %v", path, p.Name, err)
			}
		}
	}
}
