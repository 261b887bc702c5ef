package experiments

import (
	"encoding/json"

	"repro/internal/jsonl"
	"repro/internal/sampling"
	"repro/internal/simpoint"
)

// The run journal is an internal/jsonl append log under the output
// directory: one header line identifying the run, then one record per
// completed measurement or SimPoint analysis. A crashed or SIGINT'd
// RunAll leaves at worst a torn final line, which jsonl drops on the
// next open, and the resumed run re-executes only what is missing.
// Failures are never journaled — a resumed run retries failed cells
// from scratch.
//
// Byte-identity across resume is free by construction: records hold
// sampling.Result / simpoint.Analysis values whose fields round-trip
// exactly through encoding/json (Go marshals float64 with the shortest
// representation that parses back to the same bit pattern), so a
// replayed result is the result. The same property makes records safe
// to ship between processes: the distributed sweep service
// (internal/sweep) moves exactly these records over HTTP
// (Runner.CellRecords, one cell per completion) and merges them back
// into one canonical journal.

// JournalVersion gates the journal format; a bump invalidates (and
// rotates aside) every older file.
const JournalVersion = 1

// JournalRecord is one line of the journal. Kind selects which of the
// remaining fields are meaningful.
type JournalRecord struct {
	Kind string `json:"kind"` // "header" | "result" | "analysis" | "metrics"

	// Header fields: everything that must match for old records to be
	// valid in this run. Scale changes every measured value; the
	// journal version gates the format itself.
	Version int `json:"version,omitempty"`
	Scale   int `json:"scale,omitempty"`

	Bench    string             `json:"bench,omitempty"`
	Policy   string             `json:"policy,omitempty"`
	Result   *sampling.Result   `json:"result,omitempty"`
	Analysis *simpoint.Analysis `json:"analysis,omitempty"`

	// Metrics is the final obs-registry snapshot Runner.Close appends
	// when an obs registry is attached: what the sweep cost, alongside
	// what it produced. Replay ignores these records (wall-clock metrics
	// are not resumable state).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func journalHeader(scale int) JournalRecord {
	return JournalRecord{Kind: "header", Version: JournalVersion, Scale: scale}
}

// journalReplay is the journal's replay visitor: the header must name
// this run (same scale and format version, else the file is foreign),
// and of the records only measurements and analyses are resumable.
func journalReplay(scale int, records *[]JournalRecord) jsonl.Visit {
	return func(line []byte, first bool) error {
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch {
		case first:
			if rec.Kind != "header" || rec.Version != JournalVersion || rec.Scale != scale {
				return jsonl.ErrForeign
			}
		case rec.Kind == "result" || rec.Kind == "analysis":
			*records = append(*records, rec)
		}
		return nil
	}
}

// openJournal opens (or creates) the journal at path for a run at the
// given scale and returns it positioned for appends, plus the replayed
// records. A journal of a different run is rotated aside and a fresh
// one gets its header. Only unrecoverable I/O errors are returned —
// callers degrade to journal-less operation.
func openJournal(path string, scale int) (*jsonl.Log, []JournalRecord, error) {
	var records []JournalRecord
	j, fresh, err := jsonl.Open(path, journalReplay(scale, &records))
	if err != nil {
		return nil, nil, err
	}
	if fresh {
		if err := j.Append(journalHeader(scale)); err != nil {
			j.Kill()
			return nil, nil, err
		}
	}
	return j, records, nil
}

// ReadJournal replays the valid prefix of the journal at path for a run
// at the given scale, without opening it for appends. A missing file or
// one written by a different run (scale or format mismatch) returns no
// records. The sweep coordinator uses this to pre-complete cells whose
// results survived an earlier, interrupted sweep.
func ReadJournal(path string, scale int) ([]JournalRecord, error) {
	var records []JournalRecord
	if _, err := jsonl.Read(path, journalReplay(scale, &records)); err != nil {
		return nil, err
	}
	return records, nil
}

// WriteJournalFile atomically writes a complete journal (header plus
// the given records, in order) to path, so a crash never leaves a
// half-merged journal under a live name. The sweep coordinator's
// journal-merge step uses this to fold per-worker record streams into
// the canonical run journal.
func WriteJournalFile(path string, scale int, records []JournalRecord) error {
	return jsonl.WriteFile(path, func(enc *json.Encoder) error {
		if err := enc.Encode(journalHeader(scale)); err != nil {
			return err
		}
		for _, rec := range records {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	})
}
