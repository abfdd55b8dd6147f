package jsonl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// replayed is one line as Open hands it to the callback.
type replayed struct {
	line    string
	tooLong bool
}

// open writes data to a fresh file, opens it and returns the file, its
// path and the lines Open replayed.
func open(t testing.TB, data []byte) (*File, string, []replayed) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []replayed
	f, err := Open(path, func(line []byte, tooLong bool) {
		got = append(got, replayed{string(line), tooLong})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, path, got
}

func readFile(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOpenTerminatesTornTail: a last line with no newline is replayed, and
// the next append starts a line of its own.
func TestOpenTerminatesTornTail(t *testing.T) {
	f, path, got := open(t, []byte("{\"a\":1}\n\n{\"b\":"))
	want := []replayed{{`{"a":1}`, false}, {`{"b":`, false}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if err := f.Append([]byte("{\"c\":3}\n")); err != nil {
		t.Fatal(err)
	}
	if s, want := readFile(t, path), "{\"a\":1}\n\n{\"b\":\n{\"c\":3}\n"; s != want {
		t.Fatalf("file holds %q, want %q", s, want)
	}
}

// TestOpenReportsOverlongLine: a line over MaxLine is reported once,
// without its bytes, and the lines around it replay intact.
func TestOpenReportsOverlongLine(t *testing.T) {
	var data bytes.Buffer
	data.WriteString("before\n")
	data.Write(bytes.Repeat([]byte("x"), MaxLine+1))
	data.WriteString("\nafter\n")
	data.Write(bytes.Repeat([]byte("y"), MaxLine))
	_, path, got := open(t, data.Bytes())
	if len(got) != 4 {
		t.Fatalf("replayed %d lines, want 4", len(got))
	}
	if got[0] != (replayed{"before", false}) || got[1] != (replayed{"", true}) || got[2] != (replayed{"after", false}) {
		t.Errorf("replayed %v, want before, one overlong line, after", got[:3])
	}
	if got[3].tooLong || len(got[3].line) != MaxLine {
		t.Errorf("a line of exactly MaxLine bytes replayed as %d bytes (tooLong %v)", len(got[3].line), got[3].tooLong)
	}
	if s := readFile(t, path); len(s) != data.Len()+1 || s[len(s)-1] != '\n' {
		t.Errorf("torn MaxLine tail not terminated: %d bytes, want %d", len(s), data.Len()+1)
	}
}

// TestOpenEmptyFile: an empty file replays nothing and gains no newline.
func TestOpenEmptyFile(t *testing.T) {
	f, path, got := open(t, nil)
	if len(got) != 0 {
		t.Fatalf("replayed %v from an empty file", got)
	}
	if s := readFile(t, path); s != "" {
		t.Fatalf("empty file holds %q after open", s)
	}
	if err := f.Append([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "x\n" {
		t.Fatalf("file holds %q, want the one record", s)
	}
}

// TestOpenCreates: a missing file is created.
func TestOpenCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.jsonl")
	f, err := Open(path, func([]byte, bool) { t.Error("a new file replayed a line") })
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "" {
		t.Fatalf("new file holds %q", s)
	}
}

// TestAppendAfterReopen: records appended before a close replay on the
// next open, and later appends land after them.
func TestAppendAfterReopen(t *testing.T) {
	f, path, _ := open(t, nil)
	for _, rec := range []string{"1\n", "2\n"} {
		if err := f.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	f, err := Open(path, func(line []byte, _ bool) { got = append(got, string(line)) })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("reopen replayed %q, want 1, 2", got)
	}
	if err := f.Append([]byte("3\n")); err != nil {
		t.Fatal(err)
	}
	if s := readFile(t, path); s != "1\n2\n3\n" {
		t.Fatalf("file holds %q, want 1, 2, 3", s)
	}
}

// TestNilFile: a nil File drops appends and closes cleanly.
func TestNilFile(t *testing.T) {
	var f *File
	if err := f.Append([]byte("dropped\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpen: any file contents open without error, every non-empty line
// up to MaxLine reaches the callback byte for byte, and the next append
// starts a line of its own.
func FuzzOpen(f *testing.F) {
	for _, seed := range []string{"", "\n", "{}\n", "a\nb", "a\n\n\nb\n", "{\"key\":\"k\",\"measurement\":", "\r\n\x00\xff"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, path, got := open(t, data)
		var want []replayed
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\n"))
			switch {
			case len(line) > MaxLine:
				want = append(want, replayed{"", true})
			case len(line) > 0:
				want = append(want, replayed{string(line), false})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d lines, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("line %d replayed %+v, want %+v", i, got[i], want[i])
			}
		}
		if err := file.Append([]byte("{}\n")); err != nil {
			t.Fatal(err)
		}
		after := readFile(t, path)
		prefix := string(data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			prefix += "\n"
		}
		if after != prefix+"{}\n" {
			t.Fatalf("after one append the file holds %q, want %q", after, prefix+"{}\n")
		}
	})
}
