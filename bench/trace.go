package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's own code around its calls into the program (run → setup /
// pass → cell, and for sweep_dist the lease stages and HTTP verbs).
// Spans inside the program are a later issue (ROADMAP "run timeline").
// A layer's self time is its span minus the part its children cover.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them once, when the run
// ends. A nil *spanLog records nothing, so untraced passes pay one nil
// check per boundary.
type spanLog struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// start opens a span and returns its ID; end closes it.
func (l *spanLog) start(parent uint64, name, cell string) uint64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: l.workload, Cell: cell, StartNs: now})
	return id
}

func (l *spanLog) end(id uint64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepVerbs are the coordinator HTTP verbs the sweep layer reports.
var sweepVerbs = []string{"claim", "heartbeat", "append", "complete", "ckpt_get", "ckpt_put"}

// verbOf classifies a request on the sweep wire protocol; "" for the
// verbs not reported (config, status).
func verbOf(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/ckpt/"):
		if method == http.MethodPut {
			return "ckpt_put"
		}
		return "ckpt_get"
	case path == "/v1/claim", path == "/v1/heartbeat", path == "/v1/append", path == "/v1/complete":
		return strings.TrimPrefix(path, "/v1/")
	}
	return ""
}

// httpProbe measures the sweep's HTTP surface from outside: a
// middleware around Server.Handler() gives server-side time per verb, a
// RoundTripper gives the client's round-trip time, and the difference
// is what the wire and the HTTP stack cost.
type httpProbe struct {
	log    *spanLog
	parent uint64

	mu       sync.Mutex
	serverS  map[string][]float64 // verb -> handler durations, seconds
	clientNs int64
}

func newHTTPProbe(log *spanLog) *httpProbe {
	return &httpProbe{log: log, serverS: make(map[string][]float64)}
}

func (p *httpProbe) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		verb := verbOf(r.Method, r.URL.Path)
		if verb == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := p.log.start(p.parent, "http."+verb, "")
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		p.log.end(id)
		p.mu.Lock()
		p.serverS[verb] = append(p.serverS[verb], d.Seconds())
		p.mu.Unlock()
	})
}

// RoundTrip implements http.RoundTripper; a request is timed until its
// response body is closed, so body transfer counts as round-trip time.
func (p *httpProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	if verbOf(r.Method, r.URL.Path) == "" {
		return http.DefaultTransport.RoundTrip(r)
	}
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		p.addClient(time.Since(start))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { p.addClient(time.Since(start)) }}
	return resp, nil
}

func (p *httpProbe) addClient(d time.Duration) {
	p.mu.Lock()
	p.clientNs += d.Nanoseconds()
	p.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// metrics renders the probe's per-verb numbers. Every name is emitted
// (as zero) even when no request was seen, so the metric set is the
// same on every workload.
func (p *httpProbe) metrics(out map[string]metric) {
	var serverTotal float64
	for _, v := range sweepVerbs {
		var ds []float64
		if p != nil {
			p.mu.Lock()
			ds = append(ds, p.serverS[v]...)
			p.mu.Unlock()
		}
		var busy float64
		for _, d := range ds {
			busy += d
		}
		serverTotal += busy
		out["sweep.http."+v+".n"] = metric{float64(len(ds)), "count"}
		out["sweep.http."+v+".p50_ms"] = metric{median(ds) * 1e3, "ms"}
		out["sweep.http."+v+".busy_s"] = metric{busy, "s"}
		if v == "ckpt_put" {
			sort.Float64s(ds)
			p99 := 0.0
			if len(ds) > 0 {
				p99 = ds[(len(ds)*99)/100]
			}
			out["sweep.http.ckpt_put.p99_ms"] = metric{p99 * 1e3, "ms"}
		}
	}
	client := 0.0
	if p != nil {
		p.mu.Lock()
		client = float64(p.clientNs) / 1e9
		p.mu.Unlock()
	}
	out["sweep.client.rtt_minus_server_s"] = metric{client - serverTotal, "s"}
}
