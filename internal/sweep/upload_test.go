package sweep

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchTrajectory walks one suite benchmark the way a canonical session
// does and returns a snapshot every stride base intervals, at most max
// of them.
func benchTrajectory(t testing.TB, bench string, scale, stride, max int) []*vm.Snapshot {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	total := spec.ScaledInstr(scale)
	interval := workload.DefaultIntervalLen(total)
	img, _ := workload.Build(spec, total, interval)
	m := vm.New(vm.Config{})
	m.Load(img)
	var snaps []*vm.Snapshot
	for len(snaps) < max {
		if m.Run(interval*uint64(stride), nil) == 0 || m.Halted() {
			break
		}
		snaps = append(snaps, m.Snapshot())
	}
	if len(snaps) < 2 {
		t.Fatalf("%s at scale %d yielded %d snapshots", bench, scale, len(snaps))
	}
	return snaps
}

// dirFiles reads every file of a directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestUploadedDirMatchesPutDir is the oracle for the coordinator tier's
// disk format: one benchmark's trajectory deposited by Store.Put into
// one directory and by PUT /v1/ckpt/{key} of WriteTo's bytes into
// another leaves the two directories identical, file for file and byte
// for byte, and a fresh store over the uploaded directory serves every
// key. Whatever the server does between the request body and the disk,
// the file is the one Put would have written — so a directory written
// by either path, or by an earlier commit, loads everywhere.
func TestUploadedDirMatchesPutDir(t *testing.T) {
	const scale = 40000
	putDir, upDir := t.TempDir(), t.TempDir()
	direct, err := ckpt.New(ckpt.Options{Dir: putDir})
	if err != nil {
		t.Fatal(err)
	}
	served, err := ckpt.New(ckpt.Options{Dir: upDir})
	if err != nil {
		t.Fatal(err)
	}
	handler := NewServer(NewCoordinator(testConfig(), nil, nil), served, nil, nil).Handler()

	var keys []ckpt.Key
	for _, snap := range benchTrajectory(t, "gzip", scale, 16, 24) {
		k := ckpt.Key{Workload: "gzip", Hash: 0x1234, Scale: scale, Instr: snap.Instructions()}
		keys = append(keys, k)
		direct.Put(k, snap)
		var body bytes.Buffer
		if _, err := snap.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/ckpt/"+k.String(), &body))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("upload of %s answered %d: %s", k, rec.Code, rec.Body)
		}
	}

	put, uploaded := dirFiles(t, putDir), dirFiles(t, upDir)
	if len(put) != len(keys) || len(uploaded) != len(keys) {
		t.Fatalf("%d keys left %d files by Put and %d by upload", len(keys), len(put), len(uploaded))
	}
	for name, want := range put {
		got, ok := uploaded[name]
		if !ok {
			t.Fatalf("upload directory lacks %s", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the two directories (%d vs %d bytes)", name, len(got), len(want))
		}
		if _, err := vm.ReadSnapshot(bytes.NewReader(got)); err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
	}

	fresh, err := ckpt.New(ckpt.Options{Dir: upDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if snap, ok := fresh.Lookup(k); !ok || snap.Instructions() != k.Instr {
			t.Fatalf("fresh store over the uploaded directory misses %s", k)
		}
		past := k
		past.Instr++
		if snap, instr, ok := fresh.Nearest(past); !ok || instr != k.Instr || snap.Instructions() != k.Instr {
			t.Fatalf("Nearest(%s) = instr %d ok %v, want %d", past, instr, ok, k.Instr)
		}
	}
	if st := fresh.Stats(); st.DiskErrors != 0 {
		t.Fatalf("uploaded files failed to load: %s", st)
	}
}

// TestRefusedUploadsLeaveNothing drives every way an upload can go wrong
// through the HTTP surface: each is answered 400 (413 over the body
// bound) and leaves the coordinator tier's directory empty — no file
// under the key, no temp file — and its index and counters untouched.
func TestRefusedUploadsLeaveNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.New(ckpt.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(NewCoordinator(testConfig(), nil, nil), store, nil, nil).Handler())
	defer ts.Close()

	var buf bytes.Buffer
	if _, err := snapAt(t, 100).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	// A header that claims 2^24 TLB entries (the count follows the magic,
	// the CPU state and the statistics) and then delivers zeros for ever:
	// structurally plausible until the body bound cuts it off.
	const tlbCount = 8 + (3+32)*8 + 17*8
	endless := bytes.Clone(good[:tlbCount+8])
	binary.LittleEndian.PutUint64(endless[tlbCount:], 1<<24)
	key := testCkptKey(100)

	cases := []struct {
		name string
		key  ckpt.Key
		body io.Reader
		want int
	}{
		{"truncated", key, bytes.NewReader(good[:len(good)/2]), http.StatusBadRequest},
		{"flipped byte", key, bytes.NewReader(flipped), http.StatusBadRequest},
		{"wrong key", testCkptKey(101), bytes.NewReader(good), http.StatusBadRequest},
		{"bytes after the footer", key, bytes.NewReader(append(bytes.Clone(good), 0)), http.StatusBadRequest},
		{"over the body bound, chunked", key,
			io.MultiReader(bytes.NewReader(endless), io.LimitReader(fill(0), maxSnapshotBody)), http.StatusRequestEntityTooLarge},
	}
	check := func(t *testing.T, k ckpt.Key) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Errorf("the directory holds %d files (%v)", len(ents), err)
		}
		if st := store.Stats(); store.Contains(k) || st != (ckpt.Stats{}) {
			t.Errorf("the store changed: %+v", st)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Not a bytes.Reader: the client must send the endless body
			// chunked, without a Content-Length the handler refuses outright.
			req, err := http.NewRequest("PUT", ts.URL+"/v1/ckpt/"+tc.key.String(), struct{ io.Reader }{tc.body})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
			check(t, tc.key)
		})
	}

	t.Run("disconnect mid-body", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "PUT /v1/ckpt/%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", key, len(good))
		if _, err := conn.Write(good[:len(good)/2]); err != nil {
			t.Fatal(err)
		}
		// Half-closed: the server sees the body end early, and its answer
		// shows the handler ran to its end before the directory is read.
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
		check(t, key)
	})
}
