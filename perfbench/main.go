// Command perfbench is the repository benchmark. One operation is one
// study: an XML kernel spec in, a ranked table of its variants
// (analysis.RankPerElement) and the encoded report (launcher.WriteReport)
// out. Each workload is a fixed input set; see README.md for why each was
// chosen and which layers it loads.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it runs operations for the given seconds, timing the
// workload's set-ups and a fixed reference workload between them, and
// prints the end-to-end metrics, the gated times in reference seconds
// (see calib.go). With --trace 1 it replays the operation serially, timing every
// call into each layer, and prints the per-layer metrics and the
// simulated-statistics fingerprint. Either way every operation is checked
// against the workload's golden ranking digest, and the last line of
// standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit status
// is non-zero when any check fails.
//
// Run it from the repository root, where it finds specs/; it writes only
// under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and reports each failure on stderr.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: the generation seed of every operation")
		seconds = flag.Int("seconds", 10, "how long to run operations")
		trace   = flag.Int("trace", 0, "1 replays the operation layer by layer and reports per-layer metrics")
		record  = flag.String("record-goldens", "", "write the goldens of every workload to this file and exit")
	)
	flag.Parse()
	ctx := context.Background()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := writeGoldens(ctx, *record); err != nil {
			fail(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	gd, err := loadGolden(w.name)
	if err != nil {
		fail(err)
	}
	dir, err := tempDir()
	if err != nil {
		fail(err)
	}
	b := &bench{w: w, seed: *seed, dir: dir, budget: time.Duration(*seconds) * time.Second, golden: gd}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	var res *result
	if *trace == 1 {
		res, err = b.traced(ctx)
	} else {
		res, err = b.timed(ctx)
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
