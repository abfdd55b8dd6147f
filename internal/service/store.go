package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	api "microtools/api/v1"
	"microtools/internal/jsonl"
)

// storeRecord is one line of the append-only job store. Kind "submit"
// records an accepted job with its request; Kind "end" records a terminal
// state. A submit without a matching end is a job the previous process
// never finished — the daemon re-enqueues it on startup, which is how a
// drained-in-flight job resumes (cache-warm) after a restart.
type storeRecord struct {
	Kind    string          `json:"kind"`
	Job     api.JobStatus   `json:"job"`
	Request *api.JobRequest `json:"request,omitempty"`
	Result  *api.JobResult  `json:"result,omitempty"`
}

// store persists the job ledger as append-only JSONL, mirroring the
// measurement cache's durability contract: every accepted record is one
// fsync-free line, a torn or corrupt line degrades to a miss (the records
// before it survive, the tail is ignored), and two processes never share
// a store.
type store struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	path string
}

// openStore opens (creating if needed) the JSONL ledger at path. A nil
// store (path "") is valid and drops every append — memory-only serving.
func openStore(path string) (*store, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open job store: %w", err)
	}
	return &store{f: f, enc: json.NewEncoder(f), path: path}, nil
}

// append writes one record. Errors are returned for the caller to count;
// the daemon serves on regardless (the store is a ledger, not a gate).
func (s *store) append(rec storeRecord) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("service: append job store: %w", err)
	}
	return nil
}

// close releases the ledger file.
func (s *store) close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// replayStore reads the ledger at path and reconstructs the job table:
// finished is every job with a terminal record, pending is every accepted
// job without one (in submission order, ready to re-enqueue). Corrupt
// lines, and lines over jsonl.MaxLine, are skipped and counted, never
// fatal — the ledger degrades to partial knowledge exactly like a corrupt
// cache line degrades to a miss.
func replayStore(path string) (finished []storeRecord, pending []storeRecord, corrupt int, err error) {
	if path == "" {
		return nil, nil, 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, fmt.Errorf("service: replay job store: %w", err)
	}
	defer f.Close()

	submits := map[string]storeRecord{}
	var order []string
	lines := jsonl.NewReader(f)
	for {
		line, tooLong, err := lines.Next()
		if err != nil && err != io.EOF {
			// A failed read loses the records after it, nothing more.
			corrupt++
			break
		}
		if tooLong {
			corrupt++
		} else if len(line) > 0 {
			var rec storeRecord
			switch {
			case json.Unmarshal(line, &rec) != nil || rec.Job.ID == "":
				corrupt++
			case rec.Kind == "submit":
				if _, dup := submits[rec.Job.ID]; !dup {
					order = append(order, rec.Job.ID)
				}
				submits[rec.Job.ID] = rec
			case rec.Kind == "end":
				delete(submits, rec.Job.ID)
				finished = append(finished, rec)
			default:
				corrupt++
			}
		}
		if err == io.EOF {
			break
		}
	}
	for _, id := range order {
		if rec, ok := submits[id]; ok {
			pending = append(pending, rec)
		}
	}
	return finished, pending, corrupt, nil
}
