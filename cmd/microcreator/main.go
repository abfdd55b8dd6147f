// Command microcreator is the paper's §3 tool: it expands an XML kernel
// description into a set of benchmark program variants.
//
// Usage:
//
//	microcreator -input spec.xml -output gen/ [-emit-c] [-seed N]
//	             [-list-passes] [-plugins name,name] [-v]
//
// Each generated variant is written as <name>.s (and <name>.c with
// -emit-c) under the output directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"microtools/internal/cliutil"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/machine"
	"microtools/internal/passes"
	"microtools/internal/plugin"
	"microtools/internal/verify"

	// Register the shipped plugin library for -plugins.
	_ "microtools/plugins"
)

func main() {
	var (
		input      = flag.String("input", "", "XML kernel description (required; - for stdin)")
		output     = flag.String("output", "generated", "output directory for the benchmark programs")
		emitC      = flag.Bool("emit-c", false, "also emit C source for each variant")
		asmOnly    = flag.Bool("emit-asm", true, "emit assembly for each variant")
		seed       = flag.Int64("seed", 0, "seed for the random-select pass")
		pluginList = flag.String("plugins", "", "comma-separated registered plugins to apply")
		listPasses = flag.Bool("list-passes", false, "print the pass pipeline and exit")
		verbose    = flag.Bool("v", false, "per-pass progress on stderr")
		verifyOnly = flag.Bool("verify", false, "run the static verifier over every variant and print the diagnostics instead of writing programs (exit 1 on errors)")
		verifyJSON = flag.Bool("verify-json", false, "like -verify, but emit the diagnostics as JSON")
		noVerify   = flag.Bool("no-verify", false, "disable the verify-variants pass (generation proceeds even on verifier errors)")
		suppress   = flag.String("suppress", "", "comma-separated verifier rule IDs to ignore (e.g. V004,V008)")
		analyze    = flag.Bool("analyze", false, "run the static dataflow analysis over every variant and print the per-variant bounds instead of writing programs (exit 1 on dead writes or self-moves)")
		analyzeOn  = flag.String("machine", "nehalem-dual", "machine model whose µop tables -analyze uses")

		trace cliutil.Trace
		tele  cliutil.Telemetry
	)
	trace.Register(flag.CommandLine, "the generation pipeline")
	tele.Register(flag.CommandLine, "the generation run")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels generation between passes and variants.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if addr, err := tele.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
		os.Exit(1)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "microcreator: telemetry: http://%s/\n", addr)
	}
	defer tele.Close()

	if *listPasses {
		m := passes.NewManager()
		fmt.Println("MicroCreator pass pipeline (§3.2):")
		for i, p := range m.Passes() {
			gate := "on"
			if !p.Gate(&passes.Context{}) {
				gate = "off (gate)"
			}
			fmt.Printf("  %2d. %-22s %-10s %s\n", i+1, p.Name, gate, p.Doc)
		}
		if names := plugin.Names(); len(names) > 0 {
			fmt.Printf("registered plugins: %s\n", strings.Join(names, ", "))
		}
		return
	}
	if *input == "" {
		fmt.Fprintln(os.Stderr, "microcreator: -input is required (see -h)")
		os.Exit(2)
	}

	opts := core.GenerateOptions{
		Seed:            *seed,
		DisableAssembly: !*asmOnly,
		EmitC:           *emitC,
	}
	if *pluginList != "" {
		opts.Plugins = strings.Split(*pluginList, ",")
	}
	if *verbose {
		opts.Verbose = os.Stderr
	}
	if *suppress != "" {
		opts.VerifySuppress = strings.Split(*suppress, ",")
	}
	if *noVerify {
		opts.Verify = verify.ModeOff
	}
	if *verifyOnly || *verifyJSON {
		var ds verify.Diagnostics
		var progs []codegen.Program
		var err error
		if *input == "-" {
			ds, progs, err = core.Vet(ctx, os.Stdin, opts)
		} else {
			ds, progs, err = core.VetFile(ctx, *input, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
			os.Exit(1)
		}
		if !*verifyJSON {
			fmt.Printf("%d variants, %s\n", len(progs), ds.Summary())
		}
		if err := cliutil.WriteDiagnostics(os.Stdout, ds, *verifyJSON); err != nil {
			fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
			os.Exit(1)
		}
		if code := cliutil.DiagnosticsExitCode(ds); code != 0 {
			os.Exit(code)
		}
		return
	}
	opts.Tracer = trace.Tracer()

	var progs []codegen.Program
	var err error
	if *input == "-" {
		progs, err = core.Generate(ctx, os.Stdin, opts)
	} else {
		progs, err = core.GenerateFile(ctx, *input, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
		os.Exit(1)
	}
	if *analyze {
		mach, err := machine.ByName(*analyzeOn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
			os.Exit(1)
		}
		defects := 0
		for i := range progs {
			kernel, err := progs[i].Lowered()
			if err != nil {
				fmt.Fprintf(os.Stderr, "microcreator: %s: %v\n", progs[i].Name, err)
				os.Exit(1)
			}
			rep, err := dataflow.Analyze(kernel, mach.Arch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "microcreator: %s: %v\n", progs[i].Name, err)
				os.Exit(1)
			}
			if len(progs) == 1 {
				rep.WriteTable(os.Stdout)
			} else {
				fmt.Println(rep.Line())
			}
			defects += len(rep.Findings()) + len(rep.SelfMoves)
		}
		if defects > 0 {
			fmt.Fprintf(os.Stderr, "microcreator: analyze: %d defect finding(s) across %d variant(s)\n", defects, len(progs))
			os.Exit(1)
		}
		return
	}
	paths, err := core.WritePrograms(progs, *output)
	if err != nil {
		fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
		os.Exit(1)
	}
	if spans, err := trace.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "microcreator: %v\n", err)
		os.Exit(1)
	} else if spans > 0 {
		fmt.Printf("trace: %s (%d spans)\n", trace.Path, spans)
	}
	fmt.Printf("generated %d benchmark programs (%d files) in %s\n",
		len(progs), len(paths), *output)
}
