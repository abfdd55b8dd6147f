// Package jsonl owns the on-disk rules of the repository's append-only
// JSONL files — the measurement cache and the service's job ledger — so
// both follow them the same way:
//   - Open creates the file if needed and opens it for appending;
//   - every line is replayed through one reader, and a line over MaxLine
//     is consumed whole and reported, so the caller skips it like any
//     corrupt line and reads on;
//   - a read error fails the open: a file that cannot be read to its end
//     is not appended to;
//   - a last line torn by a killed process is terminated, so the next
//     record starts on a line of its own;
//   - each record is appended in one write, one append at a time.
//
// What a line means stays with the file's owner.
package jsonl

import (
	"bufio"
	"io"
	"os"
	"sync"
)

// MaxLine caps one line, newline excluded.
const MaxLine = 16 << 20

// File is one open append-only JSONL file. A nil *File is a file that is
// not kept (memory-only serving): Append drops the record and Close does
// nothing.
type File struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) the JSONL file at path and replays it:
// each non-empty line, a last unterminated one included, is passed to
// each without its newline, its bytes valid only during the call. A line
// longer than MaxLine is passed as tooLong with its bytes dropped. A read
// error closes the file and fails the open. A last line torn by a killed
// process is then terminated with a newline.
func Open(path string, each func(line []byte, tooLong bool)) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := replay(f, each); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f}, nil
}

// replay reads f to its end through a 64 KiB buffer, hands each line to
// each, and terminates a torn last line.
func replay(f *os.File, each func(line []byte, tooLong bool)) error {
	r := bufio.NewReaderSize(f, 64<<10)
	var line []byte
	tooLong, torn := false, false
	for {
		frag, err := r.ReadSlice('\n')
		if len(frag) > 0 {
			torn = frag[len(frag)-1] != '\n'
		}
		if err == nil {
			frag = frag[:len(frag)-1]
		}
		if !tooLong && len(line)+len(frag) > MaxLine {
			tooLong, line = true, line[:0]
		}
		if !tooLong {
			line = append(line, frag...)
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil, io.EOF:
		default:
			return err
		}
		if tooLong || len(line) > 0 {
			each(line, tooLong)
		}
		if err == io.EOF {
			if torn {
				_, err := f.Write([]byte{'\n'})
				return err
			}
			return nil
		}
		line, tooLong = line[:0], false
	}
}

// Append writes one record, which must be a whole line ending in a
// newline, in a single write. On a nil File it does nothing.
func (f *File) Append(line []byte) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.f.Write(line)
	return err
}

// Close releases the file. On a nil File it does nothing.
func (f *File) Close() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Close()
}
