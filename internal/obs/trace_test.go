package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTraceRingAndSeq(t *testing.T) {
	tr := NewTransitionTrace(3)
	for i := 0; i < 5; i++ {
		tr.Record(Transition{Instr: uint64(i)})
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d, want 3", len(snap))
	}
	for i, rec := range snap {
		wantSeq := uint64(2 + i) // oldest retained is the third record
		if rec.Seq != wantSeq || rec.Instr != wantSeq {
			t.Fatalf("snap[%d] = %+v, want seq/instr %d", i, rec, wantSeq)
		}
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTransitionTrace(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(Transition{Bench: "gzip", From: "fast", To: "timing"})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Fatalf("total = %d, want 800", tr.Total())
	}
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTransitionTrace(4)
	tr.Record(Transition{Bench: "gzip", From: "init", To: "fast", Instr: 0})
	tr.Record(Transition{Bench: "gzip", From: "fast", To: "timing", Instr: 1 << 20, DeltaTCInval: 7})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Total       uint64       `json:"total"`
		Transitions []Transition `json:"transitions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 2 || len(got.Transitions) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Transitions[1].From != "fast" || got.Transitions[1].DeltaTCInval != 7 {
		t.Fatalf("transition = %+v", got.Transitions[1])
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core_mode_transitions_total", "from", "fast", "to", "timing").Add(2)
	tr := NewTransitionTrace(8)
	tr.Record(Transition{Bench: "gzip", From: "fast", To: "timing"})
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	if body := get("/metrics"); !strings.Contains(body, `core_mode_transitions_total{from="fast",to="timing"} 2`) {
		t.Fatalf("/metrics:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, "core_mode_transitions_total") {
		t.Fatalf("/metrics.json:\n%s", body)
	}
	if body := get("/transitions"); !strings.Contains(body, `"to": "timing"`) {
		t.Fatalf("/transitions:\n%s", body)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := Serve("127.0.0.1:0", reg, NewTransitionTrace(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
}
