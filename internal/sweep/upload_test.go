package sweep

import (
	"bytes"
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
