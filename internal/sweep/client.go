package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/vm"
)

// ErrCoordinatorDown classifies failures where the coordinator could
// not serve the request at all: connection refused/reset, timeouts, and
// 5xx responses. The request may or may not have been processed, but
// nothing was acknowledged; the worker's state is not invalidated and
// the right response is seeded backoff and retry (a restarted
// coordinator then announces itself through a new epoch).
var ErrCoordinatorDown = errors.New("sweep: coordinator unavailable")

// ErrBadResponse classifies a malformed reply on a success status: an
// empty 2xx body, a non-JSON body (an intercepting proxy's HTML error
// page, say), or a reply truncated mid-JSON. Distinguished from
// ErrCoordinatorDown because it usually means something *between* the
// worker and a healthy coordinator is damaged — but it is equally
// retryable, and the worker treats both as the reconnect-budget class.
var ErrBadResponse = errors.New("sweep: malformed coordinator response")

// ErrTooLarge reports a request the coordinator refused for its size
// (413). Sending it again cannot succeed, so it is not in the retryable
// class: the worker gives up on the sweep and says why.
var ErrTooLarge = errors.New("sweep: request body over the coordinator's limit")

// maxResponseBytes bounds control-plane reply bodies (the largest,
// /v1/status, is well under a megabyte).
const maxResponseBytes = 16 << 20

// Client is the worker side of the wire protocol. It also implements
// ckpt.Remote, so a worker's checkpoint store mirrors its deposits to
// the coordinator directly.
type Client struct {
	base string
	hc   *http.Client
	// epoch is the last coordinator incarnation observed (via /v1/config
	// or a claim response); it is stamped on every lease verb so a
	// restarted coordinator rejects messages meant for its predecessor.
	epoch atomic.Uint64
	// Faults, when non-nil, injects deterministic upload outages
	// (NetPut) into the checkpoint mirror. Used by the robustness
	// harness.
	Faults *faults.Injector
}

// NewClient creates a client for a coordinator at base (e.g.
// "http://127.0.0.1:8700"). hc may be nil for http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Epoch returns the last coordinator epoch this client observed (0
// before the first config fetch or claim).
func (cl *Client) Epoch() uint64 { return cl.epoch.Load() }

// observeEpoch adopts a newly-seen coordinator epoch.
func (cl *Client) observeEpoch(e uint64) {
	if e != 0 {
		cl.epoch.Store(e)
	}
}

// decodeStrict reads a success-status body and decodes it as JSON,
// classifying every failure mode — read error mid-body (a truncated
// chunked reply), empty body, non-JSON bytes — as ErrBadResponse so
// callers never see a raw json.Unmarshal error for wire damage.
func decodeStrict(r io.Reader, out interface{}, what string) error {
	data, err := io.ReadAll(io.LimitReader(r, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("%w: %s: reading body: %v", ErrBadResponse, what, err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return fmt.Errorf("%w: %s: empty body", ErrBadResponse, what)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadResponse, what, err)
	}
	return nil
}

// do sends a request with in (when non-nil) as its JSON body and
// decodes the JSON response into out, mapping protocol statuses back to
// the coordinator's typed errors and transport/5xx/malformed-body
// failures to the retryable classes. Every control-plane verb goes
// through it.
func (cl *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s: %v", ErrCoordinatorDown, path, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		if out == nil {
			// The coordinator acks lease verbs with a JSON body; decode it
			// strictly even when the caller ignores it, so a torn reply or
			// an intercepting proxy's HTML page is classified, not dropped.
			var ack json.RawMessage
			return decodeStrict(resp.Body, &ack, path)
		}
		return decodeStrict(resp.Body, out, path)
	case resp.StatusCode == http.StatusConflict:
		return fmt.Errorf("%w (%s)", ErrStaleLease, errBody(resp))
	case resp.StatusCode == http.StatusGone:
		return fmt.Errorf("%w (%s)", ErrStaleEpoch, errBody(resp))
	case resp.StatusCode == http.StatusUnprocessableEntity:
		return fmt.Errorf("%w (%s)", ErrIncompleteCell, errBody(resp))
	case resp.StatusCode == http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w: %s: %s", ErrTooLarge, path, errBody(resp))
	case resp.StatusCode >= 500:
		return fmt.Errorf("%w: %s: status %d: %s", ErrCoordinatorDown, path, resp.StatusCode, errBody(resp))
	default:
		return fmt.Errorf("sweep: %s: status %d: %s", path, resp.StatusCode, errBody(resp))
	}
}

// errBody extracts a bounded error-message body for wrapping.
func errBody(resp *http.Response) string {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	return strings.TrimSpace(string(msg))
}

// FetchConfig retrieves the sweep configuration workers must adopt,
// recording the serving coordinator's epoch. The context cancels the
// in-flight request.
func (cl *Client) FetchConfig(ctx context.Context) (Config, error) {
	var cfg Config
	if err := cl.do(ctx, http.MethodGet, "/v1/config", nil, &cfg); err != nil {
		return Config{}, err
	}
	cl.observeEpoch(cfg.Epoch)
	return cfg, nil
}

// Claim asks for a lease. done=true means the sweep is finished; a
// (nil, false) return means every remaining cell is leased elsewhere —
// poll again. The context cancels the in-flight request.
func (cl *Client) Claim(ctx context.Context, worker string) (*Lease, bool, error) {
	var resp claimResponse
	if err := cl.do(ctx, http.MethodPost, "/v1/claim", claimRequest{Worker: worker}, &resp); err != nil {
		return nil, false, err
	}
	if resp.Lease != nil && resp.Lease.ID == 0 {
		return nil, false, fmt.Errorf("%w: claim: lease with id 0", ErrBadResponse)
	}
	cl.observeEpoch(resp.Epoch)
	return resp.Lease, resp.Done, nil
}

// Heartbeat extends a lease; the context cancels the in-flight
// request, so a heartbeater can stop promptly even while the
// coordinator is unreachable.
func (cl *Client) Heartbeat(ctx context.Context, id uint64) error {
	return cl.do(ctx, http.MethodPost, "/v1/heartbeat", leaseRequest{Lease: id, Epoch: cl.epoch.Load()}, nil)
}

// Complete ships the records of a lease's cell and marks it done. The
// context cancels the in-flight request.
func (cl *Client) Complete(ctx context.Context, id uint64, recs []experiments.JournalRecord) error {
	return cl.do(ctx, http.MethodPost, "/v1/complete", leaseRequest{Lease: id, Records: recs, Epoch: cl.epoch.Load()}, nil)
}

// Put implements ckpt.Remote.
func (cl *Client) Put(k ckpt.Key, snap *vm.Snapshot) error {
	if cl.Faults != nil {
		if err := cl.Faults.NetFault(k.String()); err != nil {
			return err
		}
	}
	// Sized up front: the encoding is the in-memory footprint (page
	// images dominate both) plus a few section headers, and a buffer
	// doubled up from empty copies every upload twice over. The transport
	// may read the body after Do returns, so it is not pooled.
	size := snap.SizeBytes()
	buf := bytes.NewBuffer(make([]byte, 0, size+size/16))
	if _, err := snap.WriteTo(buf); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, cl.base+"/v1/ckpt/"+k.String(), buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return fmt.Errorf("sweep: ckpt put: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		return fmt.Errorf("%w: ckpt put: %s", ErrTooLarge, errBody(resp))
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweep: ckpt put: status %d: %s", resp.StatusCode, errBody(resp))
	}
	return nil
}
