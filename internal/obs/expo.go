package obs

// Exposition: Prometheus text format, flat JSON, an http.Handler
// bundling both with the transition trace, and a convenience Serve for
// the commands' -metrics-addr flag.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// formatFloat renders a metric value with the shortest round-tripping
// representation (what Prometheus clients emit).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format, families sorted by name with one # TYPE line each,
// histograms with cumulative le-buckets plus _sum and _count series.
// Nil receiver writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind); err != nil {
				return err
			}
			lastFamily = m.family
		}
		var err error
		switch m.kind {
		case counterKind:
			_, err = fmt.Fprintf(w, "%s %d\n", m.full, m.c.Value())
		case gaugeKind:
			_, err = fmt.Fprintf(w, "%s %s\n", m.full, formatFloat(m.g.Value()))
		case histKind:
			err = writePromHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram's bucket/sum/count series.
func writePromHistogram(w io.Writer, m *metric) error {
	h := m.h
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if err := writePromBucket(w, m, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := writePromBucket(w, m, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", fullName(m.family+"_sum", m.labels), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", fullName(m.family+"_count", m.labels), h.Count())
	return err
}

func writePromBucket(w io.Writer, m *metric, le string, cum uint64) error {
	labels := `le="` + le + `"`
	if m.labels != "" {
		labels = m.labels + "," + labels
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.family, labels, cum)
	return err
}

// WriteJSON renders Snapshot() as one sorted JSON object (encoding/json
// orders map keys). Nil receiver writes an empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = map[string]float64{}
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Handler serves the registry and trace:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  flat JSON snapshot
//	/transitions   mode-transition trace (JSON)
//
// reg and tr may each be nil; the endpoints then serve empty documents.
func Handler(reg *Registry, tr *TransitionTrace) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/transitions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteJSON(w)
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr exposing Handler(reg, tr). It
// returns once the listener is bound, so Addr() is immediately valid
// (addr may use port 0).
func Serve(addr string, reg *Registry, tr *TransitionTrace) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	srv := &http.Server{Handler: Handler(reg, tr)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
