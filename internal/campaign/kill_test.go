package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// cacheWriterEnv names the cache a re-executed test binary appends to.
const cacheWriterEnv = "MICROTOOLS_TEST_CACHE_WRITER"

// putForever is the child's side of TestCacheKilledMidWrite: it puts
// ~100 KiB entries k000001, k000002, ... until killed (or until 512
// entries, then it waits to be killed).
func putForever(path string) {
	c, err := OpenCache(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	m := richMeasurement()
	m.Arrays = make([]uint64, 8<<10)
	for i := range m.Arrays {
		m.Arrays[i] = uint64(i) << 12
	}
	for i := 1; i <= 512; i++ {
		if _, err := c.Put(fmt.Sprintf("k%06d", i), m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(4)
		}
	}
	select {}
}

// TestCacheKilledMidWrite kills a process appending to a measurement
// cache: after reopening, every complete line loads, and the next entry
// lands on a line of its own.
func TestCacheKilledMidWrite(t *testing.T) {
	if path := os.Getenv(cacheWriterEnv); path != "" {
		putForever(path)
		return
	}
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestCacheKilledMidWrite$", "-test.count=1")
	cmd.Env = append(os.Environ(), cacheWriterEnv+"="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.Now().Add(time.Minute)
	for {
		if st, err := os.Stat(path); err == nil && st.Size() >= 1<<20 {
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

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	complete, tail := lines[:len(lines)-1], lines[len(lines)-1]
	t.Logf("%d complete lines, torn tail of %d bytes", len(complete), len(tail))
	for i, line := range complete {
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key != fmt.Sprintf("k%06d", i+1) {
			t.Fatalf("complete line %d does not decode (%v): %.80s", i+1, err, line)
		}
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n < len(complete) || n > len(complete)+min(len(tail), 1) {
		t.Fatalf("reopened cache holds %d entries, want the %d complete lines", n, len(complete))
	}
	for i := range complete {
		if _, ok := c.Get(fmt.Sprintf("k%06d", i+1)); !ok {
			t.Fatalf("entry k%06d of a complete line did not load", i+1)
		}
	}
	before := c.Len()
	if _, err := c.Put("after-kill", richMeasurement()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`{"key":"after-kill"`))
	if i <= 0 || data[i-1] != '\n' || data[len(data)-1] != '\n' {
		t.Fatalf("the entry put after the kill does not fill a line of its own (at %d of %d bytes)", i, len(data))
	}
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, ok := reopened.Get("after-kill"); !ok || reopened.Len() != before+1 {
		t.Fatalf("after a second reopen: %d entries, after-kill loaded %v; want %d and true", reopened.Len(), ok, before+1)
	}
}
