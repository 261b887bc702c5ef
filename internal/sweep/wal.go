package sweep

import (
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/jsonl"
)

// The coordinator write-ahead log makes the lease service crash-safe:
// every state transition a worker depends on — lease grant, accepted
// record, cell completion — is appended to a JSONL file *before* it is
// acknowledged, so a SIGKILLed coordinator restarted against the same
// -out directory rebuilds the completion set, the accepted-record set,
// the per-cell delivery counts, and the lease-ID high-water mark, and
// re-leases only what is genuinely unfinished.
//
// The file is an internal/jsonl append log, like the run journal: a
// crash tears at most the final entry, and everything acknowledged
// before it survives.
//
// Each coordinator incarnation opens the WAL by appending an "epoch"
// entry whose number is one past the largest epoch already present.
// Leases are incarnation-scoped: grants replayed from an older epoch
// restore delivery counts and the ID high-water mark but never a live
// lease — the workers holding them learn of the restart through
// ErrStaleEpoch (HTTP 410) and re-claim cleanly.

// walVersion gates the WAL format; a bump rotates older files aside.
const walVersion = 1

// walEntry is one line of the coordinator WAL. Kind selects the fields.
type walEntry struct {
	Kind string `json:"kind"` // "epoch" | "grant" | "expire" | "record" | "complete"

	// Epoch-entry fields: the format/run identity plus the incarnation
	// number this entry opens.
	Version int    `json:"version,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`

	Lease    uint64                     `json:"lease,omitempty"`
	Cell     *Cell                      `json:"cell,omitempty"`
	Delivery int                        `json:"delivery,omitempty"`
	Record   *experiments.JournalRecord `json:"record,omitempty"`
}

// walState is everything a restarted coordinator rebuilds from replay.
type walState struct {
	epoch      uint64                      // largest epoch seen (0 = fresh file)
	records    []experiments.JournalRecord // accepted records, in append order
	completed  []Cell                      // cells with a completion entry
	deliveries map[Cell]int                // grants per cell, across all epochs
	nextID     uint64                      // lease-ID high-water mark
}

// openWAL opens (or creates) the coordinator WAL at path, replays it,
// and appends the epoch entry for this incarnation (replayed epoch +
// 1). A WAL of a different run — format version or scale mismatch — is
// rotated aside and this one starts fresh.
func openWAL(path string, scale int) (*jsonl.Log, walState, error) {
	st := walState{deliveries: make(map[Cell]int)}
	w, _, err := jsonl.Open(path, st.fold(scale))
	if err != nil {
		return nil, walState{}, err
	}
	st.epoch++
	if err := w.Append(walEntry{Kind: "epoch", Version: walVersion, Scale: scale, Epoch: st.epoch}); err != nil {
		w.Kill()
		return nil, walState{}, err
	}
	return w, st, nil
}

// fold returns the replay visitor that folds WAL entries into st. The
// first entry must be an epoch entry naming this run, else the file is
// foreign. Out-of-protocol but parsable entries (unknown kinds, grants
// without cells) are skipped rather than fatal — the WAL is an append
// path for exactly one writer, so damage beyond a torn tail means the
// operator copied files around, and salvaging the parsable prefix beats
// refusing to start.
func (st *walState) fold(scale int) jsonl.Visit {
	grants := make(map[uint64]Cell) // live (granted, not yet completed) leases
	completed := make(map[Cell]bool)
	complete := func(cell Cell) {
		if !completed[cell] {
			completed[cell] = true
			st.completed = append(st.completed, cell)
		}
	}
	return func(line []byte, first bool) error {
		var e walEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if first && (e.Kind != "epoch" || e.Version != walVersion || e.Scale != scale) {
			return jsonl.ErrForeign
		}
		switch e.Kind {
		case "epoch":
			st.epoch = max(st.epoch, e.Epoch)
			// A new epoch orphans every live lease of the previous one.
			clear(grants)
		case "grant":
			if e.Cell != nil {
				grants[e.Lease] = *e.Cell
				st.deliveries[*e.Cell]++
				st.nextID = max(st.nextID, e.Lease)
			}
		case "expire":
			delete(grants, e.Lease)
		case "record":
			if e.Record != nil {
				st.records = append(st.records, *e.Record)
			}
		case "complete":
			if cell, ok := grants[e.Lease]; ok {
				delete(grants, e.Lease)
				complete(cell)
			} else if e.Cell != nil {
				complete(*e.Cell)
			}
		}
		return nil
	}
}
