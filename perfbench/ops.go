package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"

	"microtools/internal/analysis"
	"microtools/internal/campaign"
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
)

// outcome is what the gates check of one operation: the ranking's
// digest, the encoded report and the engine accounting.
type outcome struct {
	report   []byte
	digest   string
	variants int
	launches int
	reps     int
}

// digestOf folds a ranking into the correctness digest: per variant, in
// rank order, its name and the float64 bits of its value and static
// bound. Two rankings share a digest only if they agree bit for bit.
func digestOf(r analysis.Ranking) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range r {
		h.Write([]byte(m.Kernel))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Value))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.StaticBound))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// finish ranks and encodes the measurements: the user-facing end of every
// operation.
func finish(ms []*launcher.Measurement) (*outcome, error) {
	r := analysis.RankPerElement(ms)
	var buf bytes.Buffer
	if err := launcher.WriteReport(&buf, launcher.ReportJSON, ms); err != nil {
		return nil, err
	}
	return &outcome{report: buf.Bytes(), digest: digestOf(r), variants: len(ms)}, nil
}

// freshCache opens an empty JSONL measurement cache in dir.
func freshCache(dir string) (*campaign.Cache, string, error) {
	f, err := os.CreateTemp(dir, "cache-*.jsonl")
	if err != nil {
		return nil, "", err
	}
	path := f.Name()
	f.Close()
	c, err := campaign.OpenCache(path)
	if err != nil {
		os.Remove(path)
		return nil, "", err
	}
	return c, path, nil
}

// runStudy is one in-process operation: a campaign over the study with a
// fresh JSONL cache in dir, ranked and encoded. metrics may be nil.
func runStudy(ctx context.Context, st *study, dir string, workers int, metrics *telemetry.Metrics) (*outcome, error) {
	cache, path, err := freshCache(dir)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer cache.Close()
	res, err := campaign.Run(ctx, bytes.NewReader(st.spec), st.gen, st.campaignOptions(cache, workers, metrics))
	if err != nil {
		return nil, err
	}
	out, err := finish(res.Measurements())
	if err != nil {
		return nil, err
	}
	out.launches, out.reps = res.Launches, res.RepsExecuted
	if out.variants != res.Emitted {
		return nil, fmt.Errorf("%d of %d variants measured", out.variants, res.Emitted)
	}
	return out, nil
}

// tempDir makes the run's scratch directory under the checkout's build
// directory, so the benchmark writes nowhere else.
func tempDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}
