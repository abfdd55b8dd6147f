package main

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func lintPath(t *testing.T, path string) []Diagnostic {
	t.Helper()
	ds, err := lintFile(token.NewFileSet(), path)
	if err != nil {
		t.Fatalf("lint %s: %v", path, err)
	}
	return ds
}

func TestBadFixtureTripsEveryRule(t *testing.T) {
	ds := lintPath(t, filepath.Join("testdata", "src", "bad", "bad.go"))
	want := map[string]int{
		"L001": 2,  // time.Now + time.Since
		"L002": 1,  // rand.Intn through the global source (seeded form allowed)
		"L003": 1,  // fmt.Println (the suppressed one must not count)
		"L004": 1,  // droppedSpan only; ended and escaped spans are fine
		"L005": 2,  // capitalized + trailing punctuation
		"L006": 3,  // Background + TODO + misplaced exported ctx param
		"L007": 1,  // %v-flattened cause (the %w forms are clean)
		"L008": 2,  // expvar import + package-level atomic (struct field allowed)
		"L009": 14, // RunParallel call + its comment, then one per deleted API: LaunchAll, LaunchAllProgress, LaunchErrors, ScreenTopKStatic, the analytic import, CounterSet, NewCounterSet, CounterSink, WithProgress, WithTracker; then microtools.Run's call + its comment
		"L010": 1,  // bare library panic (Must*/must*/init forms are clean)
	}
	got := map[string]int{}
	for _, d := range ds {
		got[d.Rule]++
	}
	for rule, n := range want {
		if got[rule] != n {
			t.Errorf("rule %s: %d findings, want %d\nall: %v", rule, got[rule], n, ds)
		}
	}
	if len(ds) != 2+1+1+1+2+3+1+2+14+1 {
		t.Errorf("total findings %d, want 28: %v", len(ds), ds)
	}
}

// TestL009FacadeEntries: every qualified microtools.<Name> entry trips L009
// once in each of its three forms — a selector on an import of the root
// package, a top-level declaration in package microtools, and a comment
// naming it — while the same name on another package, and a longer
// identifier sharing its prefix, stay clean.
func TestL009FacadeEntries(t *testing.T) {
	if len(deletedFacade) == 0 {
		t.Fatal("no qualified entries in deletedAPIs")
	}
	dir := t.TempDir()
	lint := func(name, src string) []Diagnostic {
		t.Helper()
		path := filepath.Join(dir, name+".go")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return lintPath(t, path)
	}
	for name := range deletedFacade {
		forms := map[string]string{
			"selector": "package p\n\nimport \"microtools\"\n\nvar _ = microtools." + name + "\n",
			"decl":     "package microtools\n\nvar " + name + " = 0\n",
			"comment":  "package p\n\n// Use microtools." + name + " here.\nvar x = 0\n",
		}
		for form, src := range forms {
			ds := lint(name+"_"+form, src)
			if len(ds) != 1 || ds[0].Rule != "L009" {
				t.Errorf("%s %s form: findings %v, want one L009", name, form, ds)
			}
		}
		clean := "package p\n\nimport \"microtools/internal/core\"\n\n" +
			"// core." + name + " and microtools." + name + "X are other names.\n" +
			"var _ = core." + name + "\n"
		if ds := lint(name+"_clean", clean); len(ds) != 0 {
			t.Errorf("%s: unqualified or longer names flagged: %v", name, ds)
		}
	}
}

// TestL009BareEntries: every bare entry trips L009 once as a selector on
// any package and once in a comment, while a longer identifier sharing its
// prefix stays clean.
func TestL009BareEntries(t *testing.T) {
	dir := t.TempDir()
	lint := func(name, src string) []Diagnostic {
		t.Helper()
		path := filepath.Join(dir, name+".go")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return lintPath(t, path)
	}
	for name := range deletedBare {
		forms := map[string]string{
			"selector": "package p\n\nimport \"microtools/internal/launcher\"\n\nvar _ = launcher." + name + "\n",
			"comment":  "package p\n\n// Use " + name + " here.\nvar x = 0\n",
		}
		for form, src := range forms {
			ds := lint(name+"_"+form, src)
			if len(ds) != 1 || ds[0].Rule != "L009" {
				t.Errorf("%s %s form: findings %v, want one L009", name, form, ds)
			}
		}
		clean := "package p\n\nimport \"microtools/internal/launcher\"\n\n" +
			"// " + name + "X is another name.\n" +
			"var _ = launcher." + name + "X\n"
		if ds := lint(name+"_clean", clean); len(ds) != 0 {
			t.Errorf("%s: longer name flagged: %v", name, ds)
		}
	}
}

func TestBadFixtureFindingPositions(t *testing.T) {
	ds := lintPath(t, filepath.Join("testdata", "src", "bad", "bad.go"))
	// The dropped span is reported at its creation site inside droppedSpan.
	found := false
	for _, d := range ds {
		if d.Rule == "L004" {
			found = true
			if d.Line == 0 || d.Col == 0 {
				t.Errorf("L004 finding lacks a position: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("no L004 finding")
	}
}

func TestCleanFixtureIsClean(t *testing.T) {
	if ds := lintPath(t, filepath.Join("testdata", "src", "clean", "clean.go")); len(ds) != 0 {
		t.Fatalf("clean fixture produced diagnostics: %v", ds)
	}
}

func TestCollectFilesSkipsTestdata(t *testing.T) {
	files, err := collectFiles(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Base(f) == "bad.go" || filepath.Base(f) == "clean.go" {
			t.Errorf("testdata file %s not skipped", f)
		}
		if filepath.Ext(f) != ".go" {
			t.Errorf("non-Go file collected: %s", f)
		}
	}
	if len(files) == 0 {
		t.Fatal("no files collected from the package directory")
	}
}

// TestRepoIsLintClean is the linter's own acceptance gate: the repository
// must carry zero diagnostics (the same invariant make lint enforces).
func TestRepoIsLintClean(t *testing.T) {
	files, err := collectFiles(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		ds, err := lintFile(fset, f)
		if err != nil {
			t.Fatalf("lint %s: %v", f, err)
		}
		for _, d := range ds {
			t.Errorf("%s", d)
		}
	}
}

// TestHotPathFixtureTripsL011: the hot-path fixture (its path contains
// internal/passes/) seeds three retained-formatting violations and one
// suppressed store; the clean fixture under internal/campaign/ has none.
func TestHotPathFixtureTripsL011(t *testing.T) {
	ds := lintPath(t, filepath.Join("testdata", "src", "hot", "internal", "passes", "hot_bad.go"))
	n := 0
	for _, d := range ds {
		if d.Rule != "L011" {
			t.Errorf("unexpected rule in hot fixture: %v", d)
			continue
		}
		n++
	}
	if n != 3 {
		t.Errorf("L011 findings = %d, want 3 (suppressed store must not count): %v", n, ds)
	}
	if ds := lintPath(t, filepath.Join("testdata", "src", "hot", "internal", "campaign", "hot_clean.go")); len(ds) != 0 {
		t.Errorf("clean hot-path fixture produced diagnostics: %v", ds)
	}
}

// TestL011OnlyInHotPackages: the same retained store outside the hot-path
// packages is not flagged — the bad fixture (testdata/src/bad) carries no
// L011 findings even though it formats freely.
func TestL011OnlyInHotPackages(t *testing.T) {
	for _, d := range lintPath(t, filepath.Join("testdata", "src", "bad", "bad.go")) {
		if d.Rule == "L011" {
			t.Errorf("L011 fired outside the hot-path packages: %v", d)
		}
	}
}

// TestWireFixtureTripsL012: the api/v1 fixture (its path carries an api/
// segment) seeds three wire-contract violations — an internal import, an
// untagged exported field and a tag without a json key; the clean fixture
// in the same directory has none.
func TestWireFixtureTripsL012(t *testing.T) {
	ds := lintPath(t, filepath.Join("testdata", "src", "api", "v1", "bad_api.go"))
	n := 0
	for _, d := range ds {
		if d.Rule != "L012" {
			t.Errorf("unexpected rule in wire fixture: %v", d)
			continue
		}
		n++
	}
	if n != 3 {
		t.Errorf("L012 findings = %d, want 3: %v", n, ds)
	}
	if ds := lintPath(t, filepath.Join("testdata", "src", "api", "v1", "clean_api.go")); len(ds) != 0 {
		t.Errorf("clean wire fixture produced diagnostics: %v", ds)
	}
}

// TestL012OnlyInAPIPackages: untagged exported fields are everywhere in
// internal packages by design — the rule binds only the wire contract, so
// the bad fixture (no api/ segment) carries no L012 findings.
func TestL012OnlyInAPIPackages(t *testing.T) {
	for _, d := range lintPath(t, filepath.Join("testdata", "src", "bad", "bad.go")) {
		if d.Rule == "L012" {
			t.Errorf("L012 fired outside the api/ packages: %v", d)
		}
	}
}
