package service

import (
	"encoding/json"
	"fmt"

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

// replay is the job table a ledger's records rebuild: finished is every
// job with a terminal record, pending every accepted job without one (in
// submission order, ready to re-enqueue), and corrupt counts the lines
// skipped.
type replay struct {
	finished, pending []storeRecord
	corrupt           int
}

// openLedger opens (creating if needed) the append-only JSONL job ledger
// at path and replays it. It mirrors the measurement cache's durability
// contract, whose file rules both share through jsonl.Open: a corrupt
// line, or one over jsonl.MaxLine, is skipped and counted, never fatal —
// the ledger degrades to partial knowledge exactly like a corrupt cache
// line degrades to a miss — while a read error fails the open. Two
// processes never share a ledger. Path "" keeps none: the nil file drops
// every append (memory-only serving).
func openLedger(path string) (*jsonl.File, replay, error) {
	var r replay
	if path == "" {
		return nil, r, nil
	}
	submits := map[string]storeRecord{}
	var order []string
	f, err := jsonl.Open(path, func(line []byte, tooLong bool) {
		var rec storeRecord
		switch {
		case tooLong || json.Unmarshal(line, &rec) != nil || rec.Job.ID == "":
			r.corrupt++
		case rec.Kind == "submit":
			if _, dup := submits[rec.Job.ID]; !dup {
				order = append(order, rec.Job.ID)
			}
			submits[rec.Job.ID] = rec
		case rec.Kind == "end":
			delete(submits, rec.Job.ID)
			r.finished = append(r.finished, rec)
		default:
			r.corrupt++
		}
	})
	if err != nil {
		return nil, replay{}, fmt.Errorf("service: open job store: %w", err)
	}
	for _, id := range order {
		if rec, ok := submits[id]; ok {
			r.pending = append(r.pending, rec)
		}
	}
	return f, r, nil
}

// appendRecord writes one record to the ledger f as one line (a nil f
// keeps no ledger). Errors are returned for the caller to count; the
// daemon serves on regardless (the ledger is a record, not a gate).
func appendRecord(f *jsonl.File, rec storeRecord) error {
	if f == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err == nil {
		err = f.Append(append(line, '\n'))
	}
	if err != nil {
		return fmt.Errorf("service: append job store: %w", err)
	}
	return nil
}
