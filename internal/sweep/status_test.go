package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestStatusShape pins the /v1/status wire shape: exactly the
// coordinator counter block (plus "ckpt" when a store is attached),
// carrying exactly the CoordStats keys, with numbers that track the
// lease state machine. Key-set equality (not subset) makes any rename
// or removal a test failure — the shape is an API.
func TestStatusShape(t *testing.T) {
	coord := NewCoordinator(testConfig(), nil, nil)
	ts := httptest.NewServer(NewServer(coord, nil, nil, nil).Handler())
	defer ts.Close()

	keys := func(raw json.RawMessage) []string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	fetch := func() (json.RawMessage, CoordStats) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		var top struct {
			Coordinator CoordStats `json:"coordinator"`
		}
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		return body, top.Coordinator
	}

	body, st := fetch()
	if got, want := keys(body), []string{"coordinator"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("/v1/status keys = %v, want %v (the shape is an API)", got, want)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"Cells", "Claims", "Completions", "Done", "DupRecords", "Epoch", "EpochDrops", "Leased",
		"Records", "Reissues", "Replayed", "Restored", "StaleDrops", "WALErrors"}
	if got := keys(top["coordinator"]); !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator keys = %v, want %v (the shape is an API)", got, want)
	}
	cells := len(testConfig().Cells())
	if st.Cells != cells || st.Done != 0 || st.Leased != 0 || st.Epoch != 1 {
		t.Fatalf("fresh sweep status = %+v, want %d cells, none done", st, cells)
	}

	// Drive one cell through grant → completion and watch the counters
	// move.
	t0 := time.Unix(1000, 0)
	lease, _ := coord.Claim("w", t0)
	if lease == nil {
		t.Fatal("no lease")
	}
	if _, st = fetch(); st.Leased != 1 || st.Claims != 1 {
		t.Fatalf("after one claim: %+v", st)
	}
	if err := coord.Complete(lease.ID, recordsFor(lease.Cell), t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, st = fetch(); st.Done != 1 || st.Completions != 1 || st.Leased != 0 {
		t.Fatalf("after one completion: %+v", st)
	}
}

// TestHTTPEpochGate pins the wire half of the epoch protocol: lease
// verbs stamped with a wrong epoch answer 410 before the lease is even
// looked up, unstamped (epoch-0) messages are refused the same way, and
// /v1/config + claim responses carry the current epoch.
func TestHTTPEpochGate(t *testing.T) {
	coord := NewCoordinator(testConfig(), nil, nil)
	ts := httptest.NewServer(NewServer(coord, nil, nil, nil).Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, nil)

	cfg, err := cl.FetchConfig(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != 1 {
		t.Fatalf("config epoch = %d, want 1", cfg.Epoch)
	}

	lease, done, err := cl.Claim(context.Background(), "w")
	if err != nil || done || lease == nil {
		t.Fatalf("claim: %v %v %v", lease, done, err)
	}

	// Correct epoch: accepted.
	if err := cl.Heartbeat(context.Background(), lease.ID); err != nil {
		t.Fatalf("heartbeat at current epoch: %v", err)
	}
	// Stale epoch: rejected with the typed error, and counted.
	cl.epoch.Store(99)
	if err := cl.Heartbeat(context.Background(), lease.ID); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("heartbeat at epoch 99: err = %v, want ErrStaleEpoch", err)
	}
	if coord.Stats().EpochDrops == 0 {
		t.Fatal("epoch drop not counted")
	}
	// Unstamped (epoch 0): refused too.
	cl.epoch.Store(0)
	if err := cl.Heartbeat(context.Background(), lease.ID); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("unstamped heartbeat: err = %v, want ErrStaleEpoch", err)
	}
}
