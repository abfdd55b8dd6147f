package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	api "microtools/api/v1"
)

// ledgerWriterEnv names the ledger a re-executed test binary appends to.
const ledgerWriterEnv = "MICROTOOLS_TEST_LEDGER_WRITER"

// appendLedgerForever is the child's side of TestLedgerKilledMidWrite: it
// appends 64 KiB submit records j-1, j-2, ... until killed (or until
// 512 records, then it waits to be killed).
func appendLedgerForever(path string) {
	f, _, err := openLedger(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	spec := strings.Repeat("<!-- pad -->", 64<<10/12)
	for i := 1; i <= 512; i++ {
		if err := appendRecord(f, ledgerSubmit(i, spec)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(4)
		}
	}
	select {}
}

func ledgerSubmit(i int, spec string) storeRecord {
	return storeRecord{Kind: "submit",
		Job:     api.JobStatus{SchemaVersion: api.SchemaVersion, ID: fmt.Sprintf("j-%d", i), Tenant: "t", State: api.StateQueued},
		Request: &api.JobRequest{Tenant: "t", Spec: spec}}
}

// killWriter re-executes the test binary running only test, with env set
// to path, waits until path holds at least minBytes and sends the child
// SIGKILL.
func killWriter(t *testing.T, test, env, path string, minBytes int64) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), env+"="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.Now().Add(time.Minute)
	for {
		if st, err := os.Stat(path); err == nil && st.Size() >= minBytes {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("writer exited before the kill: %v\n%s", err, stderr.Bytes())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("writer wrote too little within a minute")
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
}

// TestLedgerKilledMidWrite kills a process appending to a job ledger:
// every complete line replays, and the next record lands on a line of its
// own and replays with its result.
func TestLedgerKilledMidWrite(t *testing.T) {
	if path := os.Getenv(ledgerWriterEnv); path != "" {
		appendLedgerForever(path)
		return
	}
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	killWriter(t, "TestLedgerKilledMidWrite", ledgerWriterEnv, path, 1<<20)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	complete, tail := lines[:len(lines)-1], lines[len(lines)-1]
	t.Logf("%d complete lines, torn tail of %d bytes", len(complete), len(tail))
	for i, line := range complete {
		var rec storeRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Job.ID != fmt.Sprintf("j-%d", i+1) {
			t.Fatalf("complete line %d does not load (%v): %.80s", i+1, err, line)
		}
	}
	_, pending, corrupt := replayLedger(t, path)
	if len(pending)+corrupt != len(complete)+min(len(tail), 1) || len(pending) < len(complete) {
		t.Fatalf("replay: %d pending, %d corrupt; want the %d complete lines and the tail", len(pending), corrupt, len(complete))
	}

	f, _, err := openLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	status := api.JobStatus{SchemaVersion: api.SchemaVersion, ID: "j-1", Tenant: "t", State: api.StateDone}
	result := api.JobResult{SchemaVersion: api.SchemaVersion, Job: status,
		Serving:  &api.ServingStats{CacheHits: 1, CacheHitRatio: 1},
		Campaign: &api.CampaignResult{Emitted: 1, Variants: []api.VariantResult{{Name: "k_u1", Value: 2.5, Unit: "cycles"}}}}
	if err := appendRecord(f, storeRecord{Kind: "end", Job: status, Result: &result}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Opening the ledger terminated a torn tail, so the record starts right
	// after the last complete line (and the tail, if any, ends a line of
	// its own).
	at := len(data)
	if len(tail) > 0 {
		at++
	}
	if len(after) <= at || after[at-1] != '\n' || after[len(after)-1] != '\n' {
		t.Fatalf("record after the kill does not fill a line of its own (%d bytes before, %d after)", len(data), len(after))
	}
	var got storeRecord
	if err := json.Unmarshal(after[at:len(after)-1], &got); err != nil || got.Kind != "end" || got.Job.ID != "j-1" {
		t.Fatalf("record after the kill does not load (%v): %.80s", err, after[at:])
	}

	finished, _, _ := replayLedger(t, path)
	if len(finished) != 1 || finished[0].Result == nil {
		t.Fatalf("replay finds %d end records, want the one appended after the kill", len(finished))
	}
	gotDoc, _ := finished[0].Result.MarshalJSON()
	wantDoc, _ := result.MarshalJSON()
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Fatalf("replayed result\n%s\nwant\n%s", gotDoc, wantDoc)
	}
}
