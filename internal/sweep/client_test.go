package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// misbehaving serves one canned malformed behavior on every path.
func misbehaving(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, nil)
}

// TestClientMalformedResponses pins the typed-error contract: wire
// damage and coordinator outages surface as ErrBadResponse /
// ErrCoordinatorDown, never as raw json.Unmarshal errors the worker
// cannot classify.
func TestClientMalformedResponses(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    error
	}{
		{
			name: "non-json 200 body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/html")
				fmt.Fprint(w, "<html><body>proxy login required</body></html>")
			},
			want: ErrBadResponse,
		},
		{
			name: "empty 200 body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
			},
			want: ErrBadResponse,
		},
		{
			name: "truncated reply",
			handler: func(w http.ResponseWriter, r *http.Request) {
				// Announce more bytes than arrive: the classic torn
				// response a dying proxy or connection leaves behind.
				w.Header().Set("Content-Length", "1000")
				fmt.Fprint(w, `{"done":fa`)
			},
			want: ErrBadResponse,
		},
		{
			name: "5xx",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusBadGateway)
			},
			want: ErrCoordinatorDown,
		},
		{
			name: "stale epoch 410",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "old epoch", http.StatusGone)
			},
			want: ErrStaleEpoch,
		},
		{
			name: "stale lease 409",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "stale", http.StatusConflict)
			},
			want: ErrStaleLease,
		},
		{
			name: "lease id zero",
			handler: func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(claimResponse{Lease: &Lease{ID: 0}})
			},
			want: ErrBadResponse,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := misbehaving(t, tc.handler)
			if _, _, err := cl.Claim(context.Background(), "w"); !errors.Is(err, tc.want) {
				t.Errorf("Claim: err = %v, want %v", err, tc.want)
			}
			// Heartbeat exercises the out==nil decode path.
			if err := cl.Heartbeat(context.Background(), 1); !errors.Is(err, tc.want) {
				// The lease-id-zero case only applies to claim decoding.
				if tc.name != "lease id zero" {
					t.Errorf("Heartbeat: err = %v, want %v", err, tc.want)
				}
			}
		})
	}
}

// TestClientFetchConfigMalformed covers the GET path separately (it
// does not go through postJSON).
func TestClientFetchConfigMalformed(t *testing.T) {
	cl := misbehaving(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "not json at all")
	})
	if _, err := cl.FetchConfig(context.Background()); !errors.Is(err, ErrBadResponse) {
		t.Errorf("FetchConfig non-json: err = %v, want ErrBadResponse", err)
	}

	cl = misbehaving(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	})
	if _, err := cl.FetchConfig(context.Background()); !errors.Is(err, ErrCoordinatorDown) {
		t.Errorf("FetchConfig 503: err = %v, want ErrCoordinatorDown", err)
	}
}

// TestClientConnectionRefused pins the transport-failure class: a
// coordinator that is simply gone maps to ErrCoordinatorDown.
func TestClientConnectionRefused(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	cl := NewClient(url, nil)
	if _, _, err := cl.Claim(context.Background(), "w"); !errors.Is(err, ErrCoordinatorDown) {
		t.Errorf("Claim vs closed server: err = %v, want ErrCoordinatorDown", err)
	}
	if _, err := cl.FetchConfig(context.Background()); !errors.Is(err, ErrCoordinatorDown) {
		t.Errorf("FetchConfig vs closed server: err = %v, want ErrCoordinatorDown", err)
	}
}

// TestClientAdoptsEpoch pins epoch propagation: the client learns the
// coordinator epoch from /v1/config and claim responses and stamps it
// on lease verbs.
func TestClientAdoptsEpoch(t *testing.T) {
	var gotEpoch uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/config":
			json.NewEncoder(w).Encode(Config{Scale: 2000, Epoch: 7})
		case "/v1/heartbeat":
			var req leaseRequest
			json.NewDecoder(r.Body).Decode(&req)
			gotEpoch = req.Epoch
			json.NewEncoder(w).Encode(struct{}{})
		}
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, nil)
	if _, err := cl.FetchConfig(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cl.Epoch() != 7 {
		t.Fatalf("client epoch = %d, want 7", cl.Epoch())
	}
	if err := cl.Heartbeat(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if gotEpoch != 7 {
		t.Fatalf("heartbeat carried epoch %d, want 7", gotEpoch)
	}
}

// TestHeartbeaterStopsCleanlyWhenCoordinatorGone is the -race
// regression test for the claim-to-first-heartbeat shutdown window:
// the coordinator vanishes right after the claim, and Stop must still
// return promptly with the goroutine fully exited — no leak, no hang
// on an in-flight connect.
func TestHeartbeaterStopsCleanlyWhenCoordinatorGone(t *testing.T) {
	// A server that accepts the connection and then stalls until the
	// request context dies — the worst case for Stop, which must cancel
	// the in-flight beat rather than wait out a client timeout.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body first: the server only watches for a client
		// disconnect (and cancels r.Context()) once the request body has
		// been read, and without this the stalled handler would also wedge
		// the deferred ts.Close.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	cl := NewClient(ts.URL, nil)

	hb := startHeartbeat(cl, 1, 15*time.Millisecond)
	time.Sleep(30 * time.Millisecond) // let a beat get in flight and stall
	done := make(chan struct{})
	go func() { hb.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeater Stop hung on an in-flight request")
	}

	// And the connection-refused variant: the coordinator process is
	// gone entirely between claim and first beat.
	ts2 := httptest.NewServer(http.NotFoundHandler())
	url := ts2.URL
	ts2.Close()
	hb2 := startHeartbeat(NewClient(url, nil), 1, 15*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	done2 := make(chan struct{})
	go func() { hb2.Stop(); close(done2) }()
	select {
	case <-done2:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeater Stop hung with coordinator gone")
	}
}

// TestBackoffDelayDeterministic pins the reconnect ladder: pure in
// (seed, id, n), exponential up to the cap, never outside [base/2,
// max].
func TestBackoffDelayDeterministic(t *testing.T) {
	base, max := 10*time.Millisecond, 200*time.Millisecond
	for n := 0; n < 10; n++ {
		a := backoffDelay(42, "w1", n, base, max)
		b := backoffDelay(42, "w1", n, base, max)
		if a != b {
			t.Fatalf("n=%d: nondeterministic backoff %v vs %v", n, a, b)
		}
		if a < base/2 || a > max {
			t.Fatalf("n=%d: backoff %v outside [%v, %v]", n, a, base/2, max)
		}
	}
	if backoffDelay(42, "w1", 0, base, max) == backoffDelay(42, "w2", 0, base, max) {
		t.Fatal("workers share identical jitter; fleet reconnects in lockstep")
	}
	// Monotone-ish: the n=6 delay must have reached the cap region.
	if d := backoffDelay(42, "w1", 6, base, max); d < max/2 {
		t.Fatalf("late backoff %v below half the cap", d)
	}
}
