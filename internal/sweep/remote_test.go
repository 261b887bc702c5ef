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
// deposited by one worker's store is mirrored to the coordinator tier
// through HTTP bit-identically — resuming from the server's copy
// reproduces the reference execution exactly — and nothing comes back:
// another worker's store, cold, misses.
func TestRemoteTierRoundTrip(t *testing.T) {
	serverStore, cl := newRemoteFixture(t)

	a, err := ckpt.New(ckpt.Options{Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	k := testCkptKey(1000)
	a.Put(k, snapAt(t, 1000))
	if st := a.Stats(); st.RemotePuts != 1 {
		t.Fatalf("RemotePuts = %d, want 1: %s", st.RemotePuts, st)
	}
	snap, ok := serverStore.Lookup(k)
	if !ok {
		t.Fatal("deposit was not mirrored to the remote tier")
	}

	// Bit-identity: resume from the uploaded snapshot and compare
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
		t.Fatalf("resume from the uploaded snapshot diverged:\n got %+v\nwant %+v", m.Stats(), ref.Stats())
	}

	b, err := ckpt.New(ckpt.Options{Remote: cl})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := b.Nearest(testCkptKey(5000)); ok {
		t.Fatal("a cold store was served a snapshot only the remote tier holds")
	}
	if _, ok := b.Lookup(k); ok {
		t.Fatal("a cold store was served a key only the remote tier holds")
	}
}

// TestRemoteTierFaultMatrix drives the network fault kind at rate 1.0
// against a worker store's uploads: the local deposit must survive a
// dead mirror, the failures are counted, and the degradation ladder
// switches the remote tier off after maxRemoteFails consecutive
// failures. Non-vacuity is asserted via the injector's Fired counts.
func TestRemoteTierFaultMatrix(t *testing.T) {
	t.Run("put-outage", func(t *testing.T) {
		serverStore, cl := newRemoteFixture(t)
		inj := faults.New(1, faults.Plan{NetPut: 1})
		cl.Faults = inj
		w, err := ckpt.New(ckpt.Options{Remote: cl})
		if err != nil {
			t.Fatal(err)
		}

		k := testCkptKey(3000)
		w.Put(k, snapAt(t, 3000))
		if serverStore.Contains(k) {
			t.Fatal("mirrored deposit arrived despite a total put outage")
		}
		if snap, ok := w.Lookup(k); !ok || snap.Instructions() != 3000 {
			t.Fatal("local tier lost the deposit the mirror rejected")
		}
		if st := w.Stats(); st.RemoteErrors == 0 {
			t.Fatalf("remote failures not counted: %s", st)
		}
		if inj.Fired()[faults.NetPut] == 0 {
			t.Fatalf("vacuous: fault kind %q never fired (%s)", faults.NetPut, inj)
		}

		// Degradation ladder: enough consecutive failures switch the
		// tier off; later deposits stop sending to it.
		snap1000 := snapAt(t, 1000)
		series := func(hash uint64) ckpt.Key {
			return ckpt.Key{Workload: "gzip", Hash: hash, Scale: 2000, Instr: 1000}
		}
		for i := uint64(0); i < 8; i++ {
			w.Put(series(100+i), snap1000)
		}
		if st := w.Stats(); !st.RemoteOff {
			t.Fatalf("remote tier not degraded off after sustained faults: %s", st)
		}
		before := inj.Fired()[faults.NetPut]
		w.Put(series(301), snap1000)
		if after := inj.Fired()[faults.NetPut]; after != before {
			t.Fatal("degraded-off store still sent to the remote tier")
		}
	})
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
