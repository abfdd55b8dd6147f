// Package jsonl reads the repository's append-only JSONL files — the
// measurement cache and the service's job ledger — one line at a time,
// with one rule for a line that is too long: it is consumed whole and
// reported, so the caller skips it like any corrupt line and reads on.
// Before either file is appended to, a last line torn by a killed process
// is terminated (TerminateTornTail).
package jsonl

import (
	"bufio"
	"io"
	"os"
)

// MaxLine caps one line, newline excluded.
const MaxLine = 16 << 20

// Reader reads the lines of one file.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader reads lines from r through a 64 KiB buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next line without its newline; the bytes are valid
// until the next call. A line longer than MaxLine is consumed whole but
// reported tooLong with its bytes dropped. err is io.EOF once the input
// is exhausted (line then holds a final unterminated line, if any).
func (r *Reader) Next() (line []byte, tooLong bool, err error) {
	buf := r.buf[:0]
	for {
		var frag []byte
		frag, err = r.r.ReadSlice('\n')
		if err == nil {
			frag = frag[:len(frag)-1]
		}
		if !tooLong && len(buf)+len(frag) > MaxLine {
			tooLong, buf = true, buf[:0]
		}
		if !tooLong {
			buf = append(buf, frag...)
		}
		if err != bufio.ErrBufferFull {
			r.buf = buf
			return buf, tooLong, err
		}
	}
}

// TerminateTornTail appends a newline when f is non-empty and does not
// already end in one, so the next record appended to f starts on a line of
// its own instead of being glued onto a line torn by a killed process.
// f must be open for reading and appending.
func TerminateTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}
