package sweep

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/asm"
	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Snapshot fixtures, mirroring the ckpt package's test guest: a small
// deterministic store loop with enough state to make digests meaningful.
func testMachine(t *testing.T) *vm.Machine {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Movi(1, 2000)
	b.Movi(5, 0x40000)
	b.Label("loop")
	b.St(1, 5, 0)
	b.I(isa.OpAddi, 5, 5, 512)
	b.I(isa.OpAddi, 1, 1, -1)
	b.Br(isa.OpBne, 1, 0, "loop")
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	m := vm.New(vm.Config{MemSpan: 16 << 20})
	m.Load(img)
	return m
}

func snapAt(t *testing.T, n uint64) *vm.Snapshot {
	t.Helper()
	m := testMachine(t)
	if ex := m.Run(n, nil); ex != n {
		t.Fatalf("guest halted after %d of %d instructions", ex, n)
	}
	return m.Snapshot()
}

func testCkptKey(instr uint64) ckpt.Key {
	return ckpt.Key{Workload: "gzip", Hash: 0xabcdef0123456789, Scale: 2000, Instr: instr}
}

// newRemoteFixture stands up a coordinator-side store behind a real
// loopback HTTP server and returns a client for it.
func newRemoteFixture(t *testing.T) (*ckpt.Store, *Client) {
	t.Helper()
	server, err := ckpt.New(ckpt.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(testConfig(), nil, nil)
	ts := httptest.NewServer(NewServer(coord, server, nil, nil).Handler())
	t.Cleanup(ts.Close)
	return server, NewClient(ts.URL, nil)
}

// TestRemoteTierRoundTrip is the fault-free contract: a snapshot
// deposited by one worker's store is served to another worker's store
// through the HTTP tier, bit-identically — resuming from it reproduces
// the reference execution exactly.
func TestRemoteTierRoundTrip(t *testing.T) {
	serverStore, cl := newRemoteFixture(t)

	a, err := ckpt.New(ckpt.Options{Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	k := testCkptKey(1000)
	a.Put(k, snapAt(t, 1000))
	if !serverStore.Contains(k) {
		t.Fatal("deposit was not mirrored to the remote tier")
	}
	if st := a.Stats(); st.RemotePuts != 1 {
		t.Fatalf("RemotePuts = %d, want 1: %s", st.RemotePuts, st)
	}

	// A second worker (cold local tiers) gets the snapshot remotely,
	// by its nearest-<= search; an exact-key lookup stays local.
	b, err := ckpt.New(ckpt.Options{Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(k); ok {
		t.Fatal("an exact-key lookup was served by the remote tier")
	}
	snap, instr, ok := b.Nearest(k)
	if !ok || instr != k.Instr {
		t.Fatalf("remote tier missed a mirrored key: instr %d ok %v", instr, ok)
	}
	if st := b.Stats(); st.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d, want 1: %s", st.RemoteHits, st)
	}
	// The transfer left a decoded copy on neither side.
	if bs, ss := b.Stats(), serverStore.Stats(); bs.Entries != 0 || ss.Entries != 0 || ss.NearestHits != 1 {
		t.Fatalf("after one GET the worker keeps %d entries, the server %d (nearest hits %d)", bs.Entries, ss.Entries, ss.NearestHits)
	}

	// Bit-identity: resume from the transferred snapshot and compare
	// against the reference run with the same partitioning.
	ref := testMachine(t)
	ref.Run(1000, nil)
	ref.RunToCompletion(0, nil)
	m := testMachine(t)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	m.RunToCompletion(0, nil)
	if m.Stats() != ref.Stats() {
		t.Fatalf("resume from remote snapshot diverged:\n got %+v\nwant %+v", m.Stats(), ref.Stats())
	}

	// Nearest over the wire: a target past the stored point resolves to
	// it, with the true instruction count.
	c, err := ckpt.New(ckpt.Options{Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	near, instr, ok := c.Nearest(testCkptKey(5000))
	if !ok || instr != 1000 || near.Instructions() != 1000 {
		t.Fatalf("remote Nearest = instr %d ok %v, want 1000", instr, ok)
	}
}

// TestRemoteTierFaultMatrix drives each network fault kind at rate 1.0
// against a worker store whose remote tier holds the only warm copy:
// every kind must degrade to a plain miss (scratch execution) or to the
// local tier — counted, never served corrupt — and the degradation
// ladder must switch the remote tier off after maxRemoteFails
// consecutive failures. Per-kind non-vacuity is asserted via the
// injector's Fired counts.
func TestRemoteTierFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		plan faults.Plan
		kind faults.Kind
	}{
		{"get-outage", faults.Plan{NetGet: 1}, faults.NetGet},
		{"get-corruption", faults.Plan{NetCorrupt: 1}, faults.NetCorrupt},
		{"put-outage", faults.Plan{NetPut: 1}, faults.NetPut},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serverStore, cl := newRemoteFixture(t)
			inj := faults.New(1, c.plan)
			cl.Faults = inj

			// Warm copy lives only on the coordinator side.
			k := testCkptKey(1000)
			serverStore.Put(k, snapAt(t, 1000))

			w, err := ckpt.New(ckpt.Options{Remote: cl})
			if err != nil {
				t.Fatal(err)
			}

			if c.kind == faults.NetPut {
				// Upload direction: the local deposit must survive a dead
				// mirror — degrade to the local tier, not to data loss.
				k2 := testCkptKey(3000)
				w.Put(k2, snapAt(t, 3000))
				if serverStore.Contains(k2) {
					t.Fatal("mirrored deposit arrived despite a total put outage")
				}
				if snap, ok := w.Lookup(k2); !ok || snap.Instructions() != 3000 {
					t.Fatal("local tier lost the deposit the mirror rejected")
				}
			} else {
				// Download direction: every fetch must degrade to a miss.
				for i := 0; i < 4; i++ {
					if snap, _, ok := w.Nearest(k); ok {
						t.Fatalf("fetch %d served a snapshot (instr %d) through a %s fault",
							i, snap.Instructions(), c.kind)
					}
				}
			}

			st := w.Stats()
			if st.RemoteErrors == 0 {
				t.Fatalf("remote failures not counted: %s", st)
			}
			if fired := inj.Fired()[c.kind]; fired == 0 {
				t.Fatalf("vacuous: fault kind %q never fired (%s)", c.kind, inj)
			}

			// Degradation ladder: enough consecutive failures in one
			// direction switch the tier off; later operations stop
			// consulting it entirely.
			snap1000 := snapAt(t, 1000)
			series := func(hash uint64) ckpt.Key {
				return ckpt.Key{Workload: "gzip", Hash: hash, Scale: 2000, Instr: 1000}
			}
			for i := uint64(0); i < 8; i++ {
				if c.kind == faults.NetPut {
					w.Put(series(100+i), snap1000)
				} else {
					w.Nearest(series(200 + i))
				}
			}
			st = w.Stats()
			if !st.RemoteOff {
				t.Fatalf("remote tier not degraded off after sustained faults: %s", st)
			}
			before := inj.Fired()[c.kind]
			w.Nearest(series(300))
			w.Put(series(301), snap1000)
			if after := inj.Fired()[c.kind]; after != before {
				t.Fatal("degraded-off store still consulted the remote tier")
			}
		})
	}
}

// TestRemotePutDigestChecked pins the server-side integrity gate: an
// upload whose bytes were damaged in flight is rejected with 400 and
// never enters the coordinator store.
func TestRemotePutDigestChecked(t *testing.T) {
	serverStore, cl := newRemoteFixture(t)

	k := testCkptKey(1000)
	var buf bytes.Buffer
	if _, err := snapAt(t, 1000).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40 // in-flight bit flip

	req, err := http.NewRequest(http.MethodPut, cl.base+"/v1/ckpt/"+k.String(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload answered %d, want 400", resp.StatusCode)
	}
	if serverStore.Contains(k) {
		t.Fatal("corrupt upload entered the store")
	}

	// A mislabelled (wrong-instr) upload is rejected the same way even
	// though its digest is intact.
	buf.Reset()
	if _, err := snapAt(t, 2000).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	req, err = http.NewRequest(http.MethodPut, cl.base+"/v1/ckpt/"+k.String(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mislabelled upload answered %d, want 400", resp.StatusCode)
	}
	if serverStore.Contains(k) {
		t.Fatal("mislabelled upload entered the store")
	}
}
