package sweep

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// fill is an endless stream of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestServerMalformedRequests is the server-side mirror of
// TestClientMalformedResponses: hostile or damaged requests on every
// verb get the right refusal and leave no trace — no panic, no change
// to the coordinator's state, nothing appended to the WAL, nothing
// stored. Requests go straight into the handler, so a body can be
// larger than the bound without being allocated or sent anywhere.
func TestServerMalformedRequests(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "coord.wal")
	coord := walCoord(t, walPath)
	defer coord.CloseWAL()
	store, err := ckpt.New(ckpt.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	handler := NewServer(coord, store, nil, nil).Handler()
	// A held snapshot, so a revived nearest route would serve it.
	store.Put(testCkptKey(50), snapAt(t, 50))
	// One live lease, so the coordinator has state worth protecting.
	if lease, done := coord.Claim("holder", time.Now()); lease == nil || done {
		t.Fatalf("claim: %v %v", lease, done)
	}

	var snap bytes.Buffer
	if _, err := snapAt(t, 100).WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	key := "/v1/ckpt/" + testCkptKey(100).String()
	hugeJSON := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"worker":"`), io.LimitReader(fill('a'), maxJSONBody), strings.NewReader(`"}`))
	}

	cases := []struct {
		name, method, path string
		body               io.Reader
		declared           int64 // Content-Length to announce; 0 = the body's own, or chunked
		want               int
	}{
		{"oversized json, chunked", "POST", "/v1/claim", hugeJSON(), 0, http.StatusRequestEntityTooLarge},
		{"oversized json, declared", "POST", "/v1/complete", strings.NewReader("{}"), maxJSONBody + 1, http.StatusRequestEntityTooLarge},
		{"oversized records, chunked", "POST", "/v1/complete",
			io.MultiReader(strings.NewReader(`{"lease":1,"records":[`), io.LimitReader(fill(' '), maxJSONBody), strings.NewReader(`]}`)),
			0, http.StatusRequestEntityTooLarge},
		{"oversized snapshot, declared", "PUT", key, bytes.NewReader(snap.Bytes()), maxSnapshotBody + 1, http.StatusRequestEntityTooLarge},
		{"truncated json", "POST", "/v1/complete", strings.NewReader(`{"lease":1,"records":[{"kind":"res`), 0, http.StatusBadRequest},
		{"not json", "POST", "/v1/claim", strings.NewReader("hello"), 0, http.StatusBadRequest},
		{"empty body", "POST", "/v1/complete", strings.NewReader(""), 0, http.StatusBadRequest},
		{"wrong json type", "POST", "/v1/heartbeat", strings.NewReader(`{"lease":"one"}`), 0, http.StatusBadRequest},
		{"wrong method on a verb", "GET", "/v1/claim", nil, 0, http.StatusMethodNotAllowed},
		{"wrong method on config", "POST", "/v1/config", strings.NewReader("{}"), 0, http.StatusMethodNotAllowed},
		{"wrong method on a checkpoint", "DELETE", key, nil, 0, http.StatusMethodNotAllowed},
		{"unknown path", "POST", "/v1/claims", strings.NewReader("{}"), 0, http.StatusNotFound},
		{"unknown lease, heartbeat", "POST", "/v1/heartbeat", strings.NewReader(`{"lease":999}`), 0, http.StatusConflict},
		{"unknown lease, complete", "POST", "/v1/complete", strings.NewReader(`{"lease":999}`), 0, http.StatusConflict},
		{"unknown lease, complete with records", "POST", "/v1/complete", strings.NewReader(`{"lease":999,"records":[{"kind":"result","bench":"gzip","policy":"full"}]}`), 0, http.StatusConflict},
		// The streaming verb is gone: records travel in /v1/complete only.
		{"deleted append verb", "POST", "/v1/append", strings.NewReader(`{"lease":1,"records":[{"kind":"result","bench":"gzip","policy":"Full timing"}]}`), 0, http.StatusNotFound},
		// Exact-key lookups stay local: there is no GET of one key.
		{"deleted exact-key get", "GET", key, nil, 0, http.StatusMethodNotAllowed},
		// Nothing is read back: there is no nearest route either.
		{"deleted nearest get", "GET", key + "/nearest", nil, 0, http.StatusNotFound},
		{"bad checkpoint key, put", "PUT", "/v1/ckpt/not-a-key", bytes.NewReader(snap.Bytes()), 0, http.StatusBadRequest},
		{"truncated snapshot", "PUT", key, bytes.NewReader(snap.Bytes()[:snap.Len()/2]), 0, http.StatusBadRequest},
		{"snapshot of garbage", "PUT", key, io.LimitReader(fill(0xff), 4096), 0, http.StatusBadRequest},
		{"snapshot under the wrong key", "PUT", "/v1/ckpt/" + testCkptKey(101).String(), bytes.NewReader(snap.Bytes()), 0, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := coord.Stats()
			walBefore, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			storeBefore := store.Stats()

			req := httptest.NewRequest(tc.method, tc.path, tc.body)
			if tc.declared != 0 {
				req.ContentLength = tc.declared
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req) // a panic fails the test
			if rec.Code != tc.want {
				t.Errorf("status %d, want %d (%s)", rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}

			// Rejections may be counted; nothing else may move.
			after := coord.Stats()
			after.StaleDrops = before.StaleDrops
			if after != before {
				t.Errorf("coordinator state changed:\n before %+v\n after  %+v", before, after)
			}
			if walAfter, err := os.Stat(walPath); err != nil || walAfter.Size() != walBefore.Size() {
				t.Errorf("WAL grew from %d to %d bytes (%v)", walBefore.Size(), walAfter.Size(), err)
			}
			if got := store.Stats(); got.Puts != storeBefore.Puts || got.Entries != storeBefore.Entries {
				t.Errorf("store changed: %s -> %s", storeBefore, got)
			}
		})
	}

	// The verbs still work after all of that.
	req := httptest.NewRequest("PUT", key, bytes.NewReader(snap.Bytes()))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent || !store.Contains(testCkptKey(100)) {
		t.Fatalf("well-formed upload after the malformed ones: status %d", rec.Code)
	}
}

// TestClientMapsTooLarge: a 413 is its own error class and is not
// retried — the same request cannot succeed a second time.
func TestClientMapsTooLarge(t *testing.T) {
	cl := misbehaving(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "request body over 16777216 bytes", http.StatusRequestEntityTooLarge)
	})
	errs := map[string]error{
		"complete": cl.Complete(context.Background(), 1, nil),
		"put":      cl.Put(testCkptKey(100), snapAt(t, 100)),
	}
	for verb, err := range errs {
		if !errors.Is(err, ErrTooLarge) || retryableErr(err) {
			t.Errorf("%s: err = %v (retryable %v), want non-retryable ErrTooLarge", verb, err, retryableErr(err))
		}
	}
}
