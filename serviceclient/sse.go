package serviceclient

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
)

// sseFrame is one decoded text/event-stream event.
type sseFrame struct {
	id    int64
	event string
	// data aliases the decoder's buffer: it is valid until the next call
	// to next.
	data []byte
}

// sseDecoder reads the subset of the SSE wire format the service emits:
// "id:", "event:", and "data:" lines, events separated by a blank line.
// Comment lines (":") and unknown fields are ignored per the spec. Lines
// are read in place from the bufio buffer and a frame's data lines are
// joined into one reused buffer, so a frame costs no per-line strings.
type sseDecoder struct {
	r    *bufio.Reader
	data []byte
	long []byte // a line longer than the bufio buffer, reassembled
}

func newSSEDecoder(r io.Reader) *sseDecoder {
	return &sseDecoder{r: bufio.NewReader(r)}
}

// next blocks until a full frame arrives or the stream errors (io.EOF on
// a clean close).
func (d *sseDecoder) next() (sseFrame, error) {
	var frame sseFrame
	seen := false
	d.data = d.data[:0]
	for {
		line, err := d.line()
		if err != nil {
			return sseFrame{}, err
		}
		if len(line) == 0 {
			if seen {
				frame.data = d.data
				return frame, nil
			}
			continue
		}
		if line[0] == ':' {
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			frame.id, _ = strconv.ParseInt(string(value), 10, 64)
			seen = true
		case "event":
			frame.event = string(value)
			seen = true
		case "data":
			if len(d.data) > 0 {
				d.data = append(d.data, '\n')
			}
			d.data = append(d.data, value...)
			seen = true
		}
	}
}

// line returns the next line without its line ending. It aliases the
// bufio buffer (or d.long) and is valid until the next read. A final line
// without a newline is an error, as the stream was cut mid-frame.
func (d *sseDecoder) line() ([]byte, error) {
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.r.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}
