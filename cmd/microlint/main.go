// Command microlint enforces this repository's project invariants with a
// small stdlib-only (go/ast, go/parser) analyzer. It is wired into make ci
// via the lint target.
//
// Rules:
//
//	L001  no wall-clock time (time.Now / time.Since) in library packages
//	      outside internal/obs and internal/telemetry — the toolchain is
//	      deterministic by design; all timing flows through the simulated
//	      clock, the obs tracer or the telemetry instruments.
//	L002  no package-level math/rand calls (rand.Intn, rand.Float64, ...) —
//	      randomness must come from an explicitly seeded *rand.Rand so runs
//	      are reproducible from their seed.
//	L003  no fmt.Print* in library packages — libraries return values or
//	      write to an injected io.Writer; only commands talk to stdout.
//	L004  a span or timer created with Start or Child and bound to a
//	      variable must be closed (v.End() / v.Stop()) or escape the
//	      function (stored, passed, returned); a dropped span silently
//	      truncates the trace tree, a dropped timer records nothing.
//	L005  error strings (errors.New, fmt.Errorf) must not be capitalized
//	      and must not end with punctuation or a newline.
//	L006  library packages must stay cancellable: no context.Background()
//	      or context.TODO() outside cmd/ and tests (contexts are created at
//	      the entry points and threaded down), and an exported function that
//	      takes a context.Context must take it as its first parameter.
//	L007  library errors must wrap their causes: an error value passed to
//	      fmt.Errorf takes the %w verb, not %v/%s/%q — flattening the cause
//	      severs the errors.Is/errors.As chain the error taxonomy
//	      (campaign.Error, faults.Error, launcher fault classes) relies on.
//	L008  no ad-hoc metric state outside internal/telemetry: importing
//	      expvar or declaring a package-level sync/atomic variable creates a
//	      second, unexported metrics surface that /metrics cannot see — all
//	      process-wide instrumentation goes through telemetry.Registry.
//	L009  deleted APIs stay deleted: the fan-outs and the second static
//	      cost model the campaign engine and internal/dataflow replaced
//	      (RunParallel, LaunchAll, LaunchAllProgress, LaunchErrors,
//	      ScreenTopKStatic, the analytic package), the launch/campaign
//	      option setters that option values replaced (WithFunction,
//	      WithObservers, ...) and the simulator's uncalled clock and cache
//	      helpers (TSCCycles, FlushAll, ...) may not reappear as declarations,
//	      references, imports or lingering comment mentions —
//	      docs and examples point at their replacements. Entries of the
//	      qualified form microtools.<Name> cover the root facade's deleted
//	      re-exports, whose names stay live in the internal packages: they
//	      match only selectors on an import of the root package, top-level
//	      declarations in package microtools, and comments naming
//	      microtools.<Name> literally.
//	L010  no panic in library packages: libraries return errors and leave
//	      the exit decision to the caller. The two conventional exceptions
//	      are Must*/must* helpers (whose name announces the panic) and
//	      init functions (where no error path exists).
//	L011  no retained formatted strings in the variant hot path: inside
//	      internal/codegen, internal/campaign and internal/passes, a
//	      fmt.Sprintf result or a string concatenation must not be stored
//	      into a struct field (assignment or composite literal) — these
//	      packages run once per generated variant, and a retained rendering
//	      is how the materialization wall the IR-first pipeline removed
//	      creeps back in. Build strings lazily (render methods, Append*
//	      helpers) or prove the store is cold and disable the finding.
//	L012  api/ wire packages stay leaf-level: every exported struct field
//	      carries an explicit json tag (the wire name must never depend on
//	      Go identifier casing), and nothing under internal/ is imported —
//	      the versioned contract must not leak internal types.
//
// A finding on a given line is suppressed by a comment on the same or the
// preceding line:
//
//	//microlint:disable L003          (one or more IDs, space/comma separated)
//	//microlint:disable               (all rules)
//
// Usage:
//
//	microlint [-json] [path...]
//
// Each path is walked recursively for .go files; .git, testdata, vendor
// directories and _test.go files are skipped. Exit status is 1 when any
// diagnostic is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Diagnostic is one linter finding.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var files []string
	for _, root := range roots {
		fl, err := collectFiles(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microlint: %v\n", err)
			os.Exit(2)
		}
		files = append(files, fl...)
	}
	var all []Diagnostic
	fset := token.NewFileSet()
	for _, f := range files {
		ds, err := lintFile(fset, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microlint: %v\n", err)
			os.Exit(2)
		}
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		return all[i].Col < all[j].Col
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []Diagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(os.Stderr, "microlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// collectFiles gathers the .go files under root, skipping .git, testdata and
// vendor directories and _test.go files.
func collectFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// fileContext carries what the per-rule checks need to know about one file.
type fileContext struct {
	fset *token.FileSet
	file *ast.File
	path string
	// imports maps the local name of each import to its path.
	imports map[string]string
	// library is true for non-main packages (rules L001/L003 apply).
	library bool
	// obs is true inside internal/obs and telemetry inside
	// internal/telemetry — the two packages allowed wall-clock access (obs
	// timestamps trace spans, telemetry feeds duration histograms) and, for
	// telemetry, the one place process-wide metric state may live (L008).
	obs       bool
	telemetry bool
	// hotpath is true inside the per-variant pipeline packages where rule
	// L011 (no retained formatted strings) applies.
	hotpath bool
	// api is true inside the versioned wire-contract packages (an api/
	// path segment) where rule L012 applies.
	api bool
	// parents maps every node to its syntactic parent.
	parents map[ast.Node]ast.Node
	// suppressed maps line -> rule IDs disabled there ("" disables all).
	suppressed map[int]map[string]bool

	diags []Diagnostic
}

// lintFile parses one file and runs every rule over it.
func lintFile(fset *token.FileSet, path string) ([]Diagnostic, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	slash := filepath.ToSlash(path)
	ctx := &fileContext{
		fset:      fset,
		file:      f,
		path:      path,
		imports:   importNames(f),
		library:   f.Name.Name != "main",
		obs:       strings.Contains(slash, "internal/obs/"),
		telemetry: strings.Contains(slash, "internal/telemetry/"),
		hotpath: strings.Contains(slash, "internal/codegen/") ||
			strings.Contains(slash, "internal/campaign/") ||
			strings.Contains(slash, "internal/passes/"),
		api:        strings.Contains("/"+slash+"/", "/api/"),
		parents:    buildParents(f),
		suppressed: suppressions(fset, f),
	}
	checkClockAndPrint(ctx)
	checkGlobalRand(ctx)
	checkSpans(ctx)
	checkErrorStrings(ctx)
	checkErrorWrapping(ctx)
	checkContext(ctx)
	checkMetricState(ctx)
	checkDeletedAPIs(ctx)
	checkPanics(ctx)
	checkRetainedFormat(ctx)
	checkWireContract(ctx)
	var kept []Diagnostic
	for _, d := range ctx.diags {
		if !ctx.isSuppressed(d) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

func (c *fileContext) report(pos token.Pos, rule, format string, args ...any) {
	p := c.fset.Position(pos)
	c.diags = append(c.diags, Diagnostic{
		File:    c.path,
		Line:    p.Line,
		Col:     p.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *fileContext) isSuppressed(d Diagnostic) bool {
	for _, line := range [2]int{d.Line, d.Line - 1} {
		if rules, ok := c.suppressed[line]; ok {
			if rules[""] || rules[d.Rule] {
				return true
			}
		}
	}
	return false
}

// suppressions scans the comments for microlint:disable directives.
func suppressions(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "microlint:disable")
			if i < 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			m := out[line]
			if m == nil {
				m = map[string]bool{}
				out[line] = m
			}
			rest := strings.TrimSpace(text[i+len("microlint:disable"):])
			if rest == "" {
				m[""] = true
				continue
			}
			for _, id := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ',' || unicode.IsSpace(r)
			}) {
				m[id] = true
			}
		}
	}
	return out
}

// importNames maps each import's local name to its path.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

// buildParents records the syntactic parent of every node.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// pkgCall matches a call of the form pkgName.Fn(...) where pkgName is the
// file-local name of the given import path, returning the function name.
func pkgCall(c *fileContext, call *ast.CallExpr, importPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Obj != nil { // Obj != nil means a local variable shadows it.
		return "", false
	}
	if c.imports[id.Name] != importPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkClockAndPrint implements L001 (wall clock in libraries) and L003
// (printing from libraries).
func checkClockAndPrint(c *fileContext) {
	if !c.library {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !c.obs && !c.telemetry {
			if fn, ok := pkgCall(c, call, "time"); ok && (fn == "Now" || fn == "Since") {
				c.report(call.Pos(), "L001",
					"time.%s in a library package: wall-clock time belongs in internal/obs or internal/telemetry; thread a span or accept a timestamp", fn)
			}
		}
		if fn, ok := pkgCall(c, call, "fmt"); ok && strings.HasPrefix(fn, "Print") {
			c.report(call.Pos(), "L003",
				"fmt.%s in a library package: return values or write to an injected io.Writer", fn)
		}
		return true
	})
}

// checkGlobalRand implements L002: calls through math/rand's implicitly
// seeded package-level source. Constructors for explicit sources are allowed.
func checkGlobalRand(c *fileContext) {
	allowed := map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := pkgCall(c, call, "math/rand"); ok && !allowed[fn] {
			c.report(call.Pos(), "L002",
				"rand.%s uses the global math/rand source: draw from an explicitly seeded *rand.Rand instead", fn)
		}
		return true
	})
}

// checkErrorStrings implements L005 over errors.New and fmt.Errorf literals.
func checkErrorStrings(c *fileContext) {
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		isErr := false
		if fn, ok := pkgCall(c, call, "errors"); ok && fn == "New" {
			isErr = true
		}
		if fn, ok := pkgCall(c, call, "fmt"); ok && fn == "Errorf" {
			isErr = true
		}
		if !isErr {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil || s == "" {
			return true
		}
		first, size := utf8.DecodeRuneInString(s)
		second, _ := utf8.DecodeRuneInString(s[size:])
		if unicode.IsUpper(first) && unicode.IsLower(second) {
			c.report(lit.Pos(), "L005", "error string %q should not be capitalized", s)
		}
		switch s[len(s)-1] {
		case '.', '!', '\n':
			c.report(lit.Pos(), "L005", "error string %q should not end with punctuation or a newline", s)
		}
		return true
	})
}

// checkErrorWrapping implements L007: in library packages, an error value
// formatted into fmt.Errorf must use the %w verb so the cause stays on the
// errors.Is/errors.As chain. Error values are recognized syntactically — an
// identifier or field whose name is err-like ("err", "lastErr", ...) — which
// covers the repository's idiom without type information.
func checkErrorWrapping(c *fileContext) {
	if !c.library {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if fn, ok := pkgCall(c, call, "fmt"); !ok || fn != "Errorf" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		format, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		verbs := formatVerbs(format)
		for i, arg := range call.Args[1:] {
			name, ok := errLikeName(arg)
			if !ok || i >= len(verbs) {
				continue
			}
			if v := verbs[i]; v != 'w' {
				c.report(arg.Pos(), "L007",
					"error %s is flattened with %%%c: wrap it with %%w so errors.Is/errors.As still reach the cause", name, v)
			}
		}
		return true
	})
}

// formatVerbs returns the verb rune consumed by each successive argument of
// a Printf-style format string. A `*` width or precision consumes an
// argument of its own and is recorded as '*'.
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		i++
	spec:
		for i < len(format) {
			switch ch := format[i]; {
			case ch == '%':
				i++
				break spec // literal %%, consumes nothing
			case strings.ContainsRune("+-# 0.", rune(ch)) || ch >= '0' && ch <= '9':
				i++
			case ch == '*':
				verbs = append(verbs, '*')
				i++
			default:
				verbs = append(verbs, rune(ch))
				i++
				break spec
			}
		}
	}
	return verbs
}

// errLikeName reports whether the expression is, by name, an error value:
// an identifier or selector field called "err"/"error" or suffixed with it
// ("lastErr", "rerr"); writer names like "stderr" are excluded.
func errLikeName(e ast.Expr) (string, bool) {
	var name string
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	if lower == "stderr" {
		return "", false
	}
	if lower == "err" || lower == "error" ||
		strings.HasSuffix(name, "Err") || strings.HasSuffix(name, "err") ||
		strings.HasSuffix(name, "Error") {
		return name, true
	}
	return "", false
}

// checkContext implements L006. Library packages must not mint their own
// root contexts — context.Background()/context.TODO() there severs the
// caller's cancellation chain, so a Ctrl-C at the CLI would no longer stop
// the work. Roots belong in package main (and tests); libraries accept a
// ctx and pass it on. The companion convention check keeps the ctx visible:
// an exported function that accepts a context.Context takes it first, so
// every long-running entry point reads Run(ctx, ...).
func checkContext(c *fileContext) {
	if !c.library {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := pkgCall(c, call, "context"); ok && (fn == "Background" || fn == "TODO") {
			c.report(call.Pos(), "L006",
				"context.%s in a library package severs the caller's cancellation chain: accept a ctx parameter and thread it down", fn)
		}
		return true
	})
	for _, decl := range c.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() || fn.Type.Params == nil {
			continue
		}
		for i, field := range fn.Type.Params.List {
			if !isContextType(c, field.Type) {
				continue
			}
			if i != 0 {
				c.report(field.Pos(), "L006",
					"%s takes a context.Context that is not its first parameter: contexts lead the signature by convention", fn.Name.Name)
			}
			break
		}
	}
}

// isContextType matches the syntactic type context.Context under the file's
// local import name for the context package.
func isContextType(c *fileContext, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && c.imports[id.Name] == "context"
}

// checkSpans implements L004: a span or timer bound to a local variable via
// a Start/Child chain must be closed (End/Stop) in the same function or
// escape it.
func checkSpans(c *fileContext) {
	if c.obs {
		return // the implementation package manufactures spans freely
	}
	for _, decl := range c.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		checkSpansIn(c, fn.Body)
	}
}

func checkSpansIn(c *fileContext, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" || id.Obj == nil {
			return true
		}
		if !isSpanChain(as.Rhs[0]) {
			return true
		}
		ended, escaped := spanFate(c, body, id)
		if !ended && !escaped {
			c.report(as.Pos(), "L004",
				"span %s is never closed: call %s.End() (timers: .Stop()) or let it escape the function", id.Name, id.Name)
		}
		return true
	})
}

// isSpanChain reports whether the expression is a method-call chain whose
// innermost call is .Start(...) or .Child(...) — the obs span constructors.
func isSpanChain(e ast.Expr) bool {
	for {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch inner := sel.X.(type) {
		case *ast.CallExpr:
			if sel.Sel.Name == "Start" || sel.Sel.Name == "Child" {
				return true
			}
			e = inner
		default:
			return sel.Sel.Name == "Start" || sel.Sel.Name == "Child"
		}
	}
}

// spanFate scans the function body for what happens to the span variable:
// a use chain that calls .End() marks it ended; any use outside a plain
// method chain (argument, return, assignment source, composite literal,
// address-of) marks it escaped.
func spanFate(c *fileContext, body *ast.BlockStmt, def *ast.Ident) (ended, escaped bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || id.Obj == nil || id.Obj != def.Obj {
			return true
		}
		parent := c.parents[ast.Node(id)]
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) {
			if chainCallsEnd(c, sel) {
				ended = true
			}
			return true
		}
		// Re-definition site (the := LHS) is not a use.
		if as, ok := parent.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if l == ast.Expr(id) {
					return true
				}
			}
		}
		escaped = true
		return true
	})
	return ended, escaped
}

// checkMetricState implements L008: process-wide instrumentation lives in
// internal/telemetry and nowhere else. Two shapes create a shadow metrics
// surface invisible to /metrics — importing expvar (its own registry on its
// own endpoint) and declaring a package-level sync/atomic variable (mutable
// global state with no exposition). Atomic fields inside structs are fine:
// the rule targets package-level vars only.
func checkMetricState(c *fileContext) {
	if c.telemetry {
		return
	}
	for _, imp := range c.file.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "expvar" {
			c.report(imp.Pos(), "L008",
				"expvar registers a second metrics surface /metrics cannot see: use telemetry.Registry")
		}
	}
	for _, decl := range c.file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || vs.Type == nil {
				continue
			}
			if name, ok := atomicTypeName(c, vs.Type); ok {
				c.report(vs.Pos(), "L008",
					"package-level atomic.%s is global-mutable metric state: put the instrument in telemetry.Registry (or hang the atomic off a struct)", name)
			}
		}
	}
}

// atomicTypeName reports whether the type expression mentions a sync/atomic
// type (atomic.Int64, []atomic.Uint64, ...), returning the type's name.
func atomicTypeName(c *fileContext, e ast.Expr) (string, bool) {
	var name string
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || name != "" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && c.imports[id.Name] == "sync/atomic" {
			name = sel.Sel.Name
		}
		return true
	})
	return name, name != ""
}

// deletedAPIs is L009's table: each removed identifier (or space-separated
// group of identifiers) with the replacement its finding points readers at.
// A bare name is banned in every package; a facadePrefix-qualified name only
// in its root-package forms (see checkDeletedAPIs), because the same
// identifier is live API in an internal package (core.Vet, campaign.Run,
// launcher.Launch).
var deletedAPIs = []struct{ names, use string }{
	{"RunParallel", "RunCampaign (campaign.Run) with Options.Workers"},
	{"LaunchAll", "campaign.RunPrograms"},
	{"LaunchAllProgress", "campaign.RunPrograms with an Options.Observers entry"},
	{"LaunchErrors", "campaign.Error"},
	{"ScreenTopKStatic", "core.ScreenTopK"},
	{"CounterSet", "the named counters of a telemetry.Registry (launcher.Options.Metrics)"},
	{"NewCounterSet", "telemetry.NewRegistry"},
	{"CounterSink", "telemetry.Registry.Counter"},
	{"WithProgress", "an Options.Observers entry"},
	{"WithTracker", "an Options.Observers entry tracker.Begin(name)"},
	{"WithBuffer", "Options.Workers (the queue holds 2×Workers variants)"},
	{"WithAdaptiveTarget", "Launch.Adaptive = &launcher.Plan{TargetRCIW: rciw}"},
	{"AnalyzeLiveness", "dataflow.KernelLiveness"},
	{"WithFunction WithMode WithCoreFrequency WithPinCore WithCores WithSpreadSockets " +
		"WithInterruptNoise WithVectors WithAlignments WithAlignWindow WithTrip WithExactTrip " +
		"WithElementBytes WithWarmup WithCalibration WithStatistic WithMaxInstructions " +
		"WithOMPOverheadScale WithOMPDynamic WithAdaptive WithTimeUnit WithEnergy WithWholeCall " +
		"WithVerbose WithTracer WithCounters WithFaults " +
		"WithFailFast WithObservers WithVariantDeadline WithRetryPolicy WithQuarantine",
		"the Options field"},
	{"GeneratedProgram", "codegen.Program"},
	{"TSCCycles TSCPerCoreCycle SecondsPerCoreCycle",
		"launcher.Options.TimeUnit (the launcher converts each repetition at the active frequency)"},
	{"FlushAll FlushCore", "memsim.System.Reset"},
	{"ResetStats", "memsim.Stats.Sub of two System.Stats snapshots"},
	{"microtools.Run", "microtools.RunCampaign"},
	{"microtools.GenerateFile", "microtools.Generate over the opened file"},
	{"microtools.LoadKernel microtools.LoadKernelFile", "Program.Lowered on a generated variant"},
	{"microtools.Vet microtools.VetFile microtools.Diagnostic",
		"GenerateOptions.Verify = VerifyCollect, or the microtools vet command"},
	{"microtools.NewTracer microtools.Tracer microtools.Span", "the CLIs' -trace flag"},
	{"microtools.Experiments microtools.Experiment", "microtools.RunExperiment (microtools -list names the ids)"},
	{"microtools.Machines", "microtools.MachineByName"},
	{"microtools.WriteMeasurements microtools.WriteMeasurementsCSV microtools.ReportFormat microtools.ReportCSV microtools.ReportJSON",
		"the launcher CLI's -report flag"},
	{"microtools.AnalyzeTable", "microtools.RankMeasurements, or microtools -experiment"},
	{"microtools.EnergyEstimate", "Measurement.Energy"},
	{"microtools.Counters", "Measurement.Counters"},
	{"microtools.AdaptiveOutcome", "Measurement.Adaptive"},
	{"microtools.CampaignObserver microtools.CampaignUpdate", "the CLIs' -v progress or -telemetry-addr"},
	{"microtools.CampaignSetupError microtools.ErrNoVariants", "the error and counts RunCampaign returns"},
	{"microtools.FaultPoints microtools.FaultError microtools.FaultClass microtools.FaultSite " +
		"microtools.FaultTransient microtools.FaultPermanent microtools.ErrFaultInjected " +
		"microtools.ErrFaultTransient microtools.ErrFaultPermanent",
		"NewFaultInjector and the CampaignError's *VariantError records"},
	{"microtools.PermanentFault microtools.IsPermanentFault microtools.IsTransientFault",
		"microtools.TransientFault (unclassified errors are never retried)"},
	{"microtools.NewLaunchOptions microtools.LaunchOption " +
		"microtools.WithMachine microtools.WithArrayBytes microtools.WithReps",
		"DefaultLaunchOptions plus LaunchOptions field assignment"},
	{"microtools.NewCampaignOptions microtools.CampaignOption " +
		"microtools.WithCampaignLaunch microtools.WithCampaignAdaptive microtools.WithCampaignWorkers " +
		"microtools.WithCampaignBuffer microtools.WithCampaignFailFast microtools.WithCampaignCache " +
		"microtools.WithCampaignObservers microtools.WithCampaignTracer " +
		"microtools.WithCampaignVariantDeadline microtools.WithCampaignRetryPolicy " +
		"microtools.WithCampaignQuarantine microtools.WithCampaignFaults microtools.WithCampaignCheckBounds",
		"a CampaignOptions literal"},
}

// facadePrefix marks a deletedAPIs name as a root-package facade name.
const facadePrefix = "microtools."

// deletedBare and deletedFacade index deletedAPIs by unqualified name: the
// bare entries, and the facade entries with facadePrefix stripped.
var deletedBare, deletedFacade = func() (map[string]string, map[string]string) {
	bare, facade := map[string]string{}, map[string]string{}
	for _, api := range deletedAPIs {
		for _, name := range strings.Fields(api.names) {
			if n, ok := strings.CutPrefix(name, facadePrefix); ok {
				facade[n] = api.use
			} else {
				bare[name] = api.use
			}
		}
	}
	return bare, facade
}()

// deletedImports lists L009's removed packages with their replacements.
var deletedImports = []struct{ path, use string }{
	{"microtools/internal/analytic", "internal/dataflow (core.ScreenTopK for ranking)"},
}

// checkDeletedAPIs implements L009: every bare deletedAPIs entry stays
// deleted — no plain function or type declaration, no reference (a bare
// call or any selector, call or type position), no comment mentioning it —
// and no deletedImports package is imported or mentioned. A facade entry
// matches a selector on an import of the root package, a top-level
// declaration in package microtools, or a comment containing
// microtools.<Name> as a whole identifier. The linter's own sources are
// exempt: the rule must be allowed to name what it bans.
func checkDeletedAPIs(c *fileContext) {
	if strings.Contains(filepath.ToSlash(c.path), "cmd/microlint/") {
		return
	}
	reportFacade := func(id *ast.Ident) {
		if use, ok := deletedFacade[id.Name]; ok {
			c.report(id.Pos(), "L009", "%s%s was deleted: use %s", facadePrefix, id.Name, use)
		}
	}
	if c.file.Name.Name == "microtools" {
		for _, decl := range c.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					reportFacade(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						reportFacade(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							reportFacade(id)
						}
					}
				}
			}
		}
	}
	for _, imp := range c.file.Imports {
		for _, d := range deletedImports {
			if strings.Trim(imp.Path.Value, `"`) == d.path {
				c.report(imp.Pos(), "L009", "%s was deleted: use %s", d.path, d.use)
			}
		}
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		var id *ast.Ident
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv == nil {
				id = n.Name
			}
		case *ast.TypeSpec:
			id = n.Name
		case *ast.SelectorExpr:
			id = n.Sel
			if x, ok := n.X.(*ast.Ident); ok && c.imports[x.Name] == "microtools" {
				reportFacade(n.Sel)
			}
		case *ast.CallExpr:
			id, _ = n.Fun.(*ast.Ident)
		}
		if id != nil {
			if use, ok := deletedBare[id.Name]; ok {
				c.report(id.Pos(), "L009", "%s was deleted: use %s", id.Name, use)
			}
		}
		return true
	})
	isIdent := func(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
	isSep := func(r rune) bool { return !isIdent(r) }
	for _, cg := range c.file.Comments {
	comments:
		for _, cm := range cg.List {
			for _, word := range strings.FieldsFunc(cm.Text, isSep) {
				if use, ok := deletedBare[word]; ok {
					c.report(cm.Pos(), "L009", "comment still references the deleted %s: point readers at %s", word, use)
					continue comments
				}
			}
			for rest := cm.Text; ; {
				i := strings.Index(rest, facadePrefix)
				if i < 0 {
					break
				}
				rest = rest[i+len(facadePrefix):]
				name := rest[:len(rest)-len(strings.TrimLeftFunc(rest, isIdent))]
				if use, ok := deletedFacade[name]; ok {
					c.report(cm.Pos(), "L009", "comment still references the deleted %s%s: point readers at %s", facadePrefix, name, use)
					continue comments
				}
			}
			for _, d := range deletedImports {
				if strings.Contains(cm.Text, d.path) {
					c.report(cm.Pos(), "L009", "comment still references the deleted %s: point readers at %s", d.path, d.use)
					continue comments
				}
			}
		}
	}
}

// checkPanics implements L010: library packages return errors instead of
// panicking. A panic call is allowed only inside a Must* function (the name
// is the documented contract that misuse panics) or an init function (which
// has no error return). The exemption is decided by the nearest enclosing
// FuncDecl, so a closure inside a Must* helper inherits it.
func checkPanics(c *fileContext) {
	if !c.library {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" || id.Obj != nil {
			return true
		}
		if fn := enclosingFuncDecl(c, call); fn != nil {
			name := fn.Name.Name
			if name == "init" || strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
				return true
			}
		}
		c.report(call.Pos(), "L010",
			"panic in a library package: return an error and let the caller decide (Must* helpers and init are exempt)")
		return true
	})
}

// enclosingFuncDecl walks the parent chain to the top-level function
// declaration containing n, or nil for package-level expressions.
func enclosingFuncDecl(c *fileContext, n ast.Node) *ast.FuncDecl {
	for cur := c.parents[n]; cur != nil; cur = c.parents[cur] {
		if fn, ok := cur.(*ast.FuncDecl); ok {
			return fn
		}
	}
	return nil
}

// chainCallsEnd climbs a method chain rooted at sel and reports whether any
// link calls End (obs spans) or Stop (telemetry timers).
func chainCallsEnd(c *fileContext, sel *ast.SelectorExpr) bool {
	var node ast.Node = sel
	for {
		if s, ok := node.(*ast.SelectorExpr); ok && (s.Sel.Name == "End" || s.Sel.Name == "Stop") {
			return true
		}
		parent := c.parents[node]
		switch p := parent.(type) {
		case *ast.CallExpr:
			if p.Fun != node.(ast.Expr) {
				return false // used as an argument, not called
			}
			node = p
		case *ast.SelectorExpr:
			if p.X != node.(ast.Expr) {
				return false
			}
			node = p
		default:
			return false
		}
	}
}

// checkRetainedFormat implements L011: in the per-variant hot-path packages
// (internal/codegen, internal/campaign, internal/passes) a fmt.Sprintf
// result or a string concatenation stored into a struct field is a retained
// rendering — the allocation pattern the IR-first pipeline exists to avoid.
// Locals, arguments and return values are fine; only field stores (plain
// assignment or composite-literal element) are flagged.
func checkRetainedFormat(c *fileContext) {
	if !c.hotpath {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if i >= len(n.Rhs) {
					continue
				}
				if kind := formattedStringKind(c, n.Rhs[i]); kind != "" {
					c.report(n.Rhs[i].Pos(), "L011",
						"%s stored into a struct field is retained per variant — render lazily or append into a pooled buffer", kind)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if _, ok := kv.Key.(*ast.Ident); !ok {
					continue
				}
				if kind := formattedStringKind(c, kv.Value); kind != "" {
					c.report(kv.Value.Pos(), "L011",
						"%s stored into a struct field is retained per variant — render lazily or append into a pooled buffer", kind)
				}
			}
		}
		return true
	})
}

// formattedStringKind classifies e as a retained-formatting expression:
// a fmt.Sprintf call, or a + concatenation with a string literal operand
// (the literal is what betrays string concatenation without type
// information). Anything else returns "".
func formattedStringKind(c *fileContext, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok &&
				c.imports[id.Name] == "fmt" && sel.Sel.Name == "Sprintf" {
				return "fmt.Sprintf result"
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && hasStringLit(e) {
			return "string concatenation"
		}
	}
	return ""
}

// hasStringLit reports whether a +-expression tree contains a string
// literal operand.
func hasStringLit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.BinaryExpr:
		return e.Op == token.ADD && (hasStringLit(e.X) || hasStringLit(e.Y))
	case *ast.ParenExpr:
		return hasStringLit(e.X)
	}
	return false
}

// checkWireContract implements L012 inside the versioned wire-contract
// packages (any api/ path segment). Two shapes break the contract: an
// exported struct field without an explicit json tag, whose wire name
// would silently track the Go identifier, and an import from under
// internal/, which couples the public contract to types the module does
// not export. Both must fail CI rather than reach a client.
func checkWireContract(c *fileContext) {
	if !c.api {
		return
	}
	for _, imp := range c.file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/") {
			c.report(imp.Pos(), "L012",
				"wire package imports %s: the versioned contract must not depend on internal types", path)
		}
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			tagged := field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`)
			for _, name := range field.Names {
				if name.IsExported() && !tagged {
					c.report(name.Pos(), "L012",
						"exported wire field %s has no explicit json tag: the wire name must not track the Go identifier", name.Name)
				}
			}
		}
		return true
	})
}
