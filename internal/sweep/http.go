package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// The wire protocol. Three lease verbs plus the checkpoint mirror:
//
//	GET  /v1/config            sweep Config (workers adopt it verbatim)
//	POST /v1/claim             {"worker":W} -> {"done":bool,"lease":{...},"epoch":E}
//	POST /v1/heartbeat         {"lease":ID,"epoch":E}
//	POST /v1/complete          {"lease":ID,"records":[...],"epoch":E} the cell's whole record set
//	GET  /v1/status            coordinator + store counters (JSON)
//	PUT  /v1/ckpt/{key}        digest-checked upload (400 corrupt)
//
// Request bodies are bounded (maxJSONBody, maxSnapshotBody): a larger
// one answers 413 and nothing of it is acted on. Stale or superseded
// leases answer 409; completions with missing records answer 422;
// lease verbs not stamped with this incarnation's epoch E (from
// /v1/config or /v1/claim) answer 410 (the worker re-fetches /v1/config
// and re-claims); WAL append failures answer 503 (retryable — nothing
// was acknowledged). Keys and snapshot
// bodies are checked by the checkpoint store, not by the transport
// (ckpt.ParseKey, and ckpt's accept: digest footer, the key's
// instruction count, nothing after the footer) — the server never stores
// an upload it could not decode, and no key names a file outside the
// store's directory. The server decodes an upload only to verify it:
// what it keeps is the bytes, spooled to the key's disk file as they are
// checked (ckpt.Store.PutFrom), so a disk-backed server's memory tier
// stays empty. Nothing is served back: a worker re-executes a prefix in
// its fast engine far quicker than a fetch would bring it.

// Request-body bounds. The largest bodies one traced pass of the
// benchmark's sweep_dist workload sends are a 123 792-byte /v1/complete
// (a full-timing cell: one result with its interval trace) and a
// 2 191 612-byte snapshot upload (the suite's largest snapshot,
// equake's, is 2 770 591 bytes at every scale); record sets grow with
// the number of samples, so the JSON bound mirrors the client's bound on
// replies (maxResponseBytes).
const (
	maxJSONBody     = 16 << 20 // every verb but the snapshot upload
	maxSnapshotBody = 64 << 20 // PUT /v1/ckpt/{key}
)

type claimRequest struct {
	Worker string `json:"worker"`
}

type claimResponse struct {
	Done  bool   `json:"done"`
	Lease *Lease `json:"lease,omitempty"`
	// Epoch is the granting incarnation; clients echo it on lease verbs.
	Epoch uint64 `json:"epoch,omitempty"`
}

type leaseRequest struct {
	Lease   uint64                      `json:"lease"`
	Records []experiments.JournalRecord `json:"records,omitempty"`
	// Epoch is the coordinator incarnation the sender believes it is
	// talking to.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Server adapts a Coordinator and a checkpoint store to HTTP. The
// store is the coordinator-side tier behind PUT /v1/ckpt: typically
// disk-backed, it collects every worker's deposits.
type Server struct {
	coord *Coordinator
	store *ckpt.Store
	mux   *http.ServeMux
}

// NewServer builds the HTTP adapter. store may be nil (uploads then
// answer 503, which the workers' stores degrade on; the sweep still
// works). reg/tr, when non-nil, mount the obs
// exposition endpoints (/metrics, /metrics.json, /transitions) on the
// same listener.
func NewServer(coord *Coordinator, store *ckpt.Store, reg *obs.Registry, tr *obs.TransitionTrace) *Server {
	s := &Server{coord: coord, store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/config", s.handleConfig)
	s.mux.HandleFunc("POST /v1/claim", s.handleClaim)
	s.mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /v1/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("PUT /v1/ckpt/{key}", s.handleCkptPut)
	if reg != nil || tr != nil {
		s.mux.Handle("/", obs.Handler(reg, tr))
	}
	return s
}

// Handler returns the server's HTTP handler: the routes behind the
// request-body bound. A declared length over the bound is refused
// outright; a chunked or lying body is cut off by MaxBytesReader where
// it is read (badBody).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		limit := int64(maxJSONBody)
		if r.Method == http.MethodPut {
			limit = maxSnapshotBody
		}
		if r.ContentLength > limit {
			http.Error(w, fmt.Sprintf("request body over %d bytes", limit), http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		s.mux.ServeHTTP(w, r)
	})
}

// badBody answers a request whose body could not be decoded: 413 when
// the cause is the body bound, 400 otherwise.
func badBody(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("%s: %v", what, err), status)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body, answering 400 on malformed input.
func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		badBody(w, "bad request", err)
		return false
	}
	return true
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request) {
	cfg := s.coord.Config()
	cfg.Epoch = s.coord.Epoch()
	writeJSON(w, cfg)
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !readJSON(w, r, &req) {
		return
	}
	lease, done := s.coord.Claim(req.Worker, time.Now())
	writeJSON(w, claimResponse{Done: done, Lease: lease, Epoch: s.coord.Epoch()})
}

// leaseStatus maps a lease-verb error to its HTTP status.
func leaseStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrStaleLease):
		return http.StatusConflict
	case errors.Is(err, ErrStaleEpoch):
		return http.StatusGone
	case errors.Is(err, ErrIncompleteCell):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrWAL):
		// Nothing was acknowledged; the worker should retry against this
		// (or, after a crash, the next) incarnation.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) leaseVerb(w http.ResponseWriter, r *http.Request, verb func(leaseRequest) error) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	// Epoch gate before the lease state machine: a message from before a
	// coordinator restart must not even be looked up — its lease ID may
	// collide with one the new incarnation restored from the WAL.
	if err := s.coord.CheckEpoch(req.Epoch); err != nil {
		http.Error(w, err.Error(), leaseStatus(err))
		return
	}
	if err := verb(req); err != nil {
		http.Error(w, err.Error(), leaseStatus(err))
		return
	}
	writeJSON(w, struct{}{})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.leaseVerb(w, r, func(req leaseRequest) error {
		return s.coord.Heartbeat(req.Lease, time.Now())
	})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	s.leaseVerb(w, r, func(req leaseRequest) error {
		return s.coord.Complete(req.Lease, req.Records, time.Now())
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := struct {
		Coordinator CoordStats  `json:"coordinator"`
		Ckpt        *ckpt.Stats `json:"ckpt,omitempty"`
	}{Coordinator: s.coord.Stats()}
	if s.store != nil {
		cs := s.store.Stats()
		st.Ckpt = &cs
	}
	writeJSON(w, st)
}

// parseKeyParam resolves the {key} path component, answering 400 on a
// malformed key.
func parseKeyParam(w http.ResponseWriter, r *http.Request) (ckpt.Key, bool) {
	k, ok := ckpt.ParseKey(r.PathValue("key"))
	if !ok {
		http.Error(w, "bad checkpoint key", http.StatusBadRequest)
	}
	return k, ok
}

func (s *Server) handleCkptPut(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.Error(w, "no checkpoint store", http.StatusServiceUnavailable)
		return
	}
	k, ok := parseKeyParam(w, r)
	if !ok {
		return
	}
	// The store decodes the body to verify it — digest footer, bounds,
	// the key's instruction count — so a corrupt upload (torn connection,
	// in-flight bit flip) answers 400 and leaves nothing behind; what it
	// keeps of a good one is the bytes, on disk (ckpt.Store.PutFrom).
	if err := s.store.PutFrom(k, r.Body); err != nil {
		badBody(w, "corrupt snapshot upload", err)
		return
	}
	// A key already held is accepted without its body being read; drain
	// it, or the server closes the worker's connection over the unread
	// megabyte.
	_, _ = io.Copy(io.Discard, r.Body)
	w.WriteHeader(http.StatusNoContent)
}
