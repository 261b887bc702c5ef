package sweep

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
)

// TestEveryDoorRefusesTheSameDamage offers one table of damaged
// serializations at each of the two doors a serialized snapshot can
// enter a store by — the disk file and PUT /v1/ckpt — and holds both
// to the same answer: a miss (400 for the upload), no index entry, no
// file, no temp file, and the next clean offer of the same key is
// taken. On the parent of the commit that made ckpt's accept the one
// check, the trailing-byte row passes at the upload door only: a disk
// file with bytes after the digest footer was served.
func TestEveryDoorRefusesTheSameDamage(t *testing.T) {
	k := testCkptKey(1000)
	var clean, other bytes.Buffer
	if _, err := snapAt(t, 1000).WriteTo(&clean); err != nil {
		t.Fatal(err)
	}
	if _, err := snapAt(t, 2000).WriteTo(&other); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(clean.Bytes())
	flipped[len(flipped)/2] ^= 0x40 // inside the digest-covered prefix
	damages := []struct {
		name string
		data []byte
	}{
		{"flipped byte", flipped},
		{"truncation", clean.Bytes()[:clean.Len()/2]},
		{"another instruction count", other.Bytes()},
		{"one trailing byte", append(bytes.Clone(clean.Bytes()), 0)},
	}

	// A door takes a directory and returns the store behind it and the
	// way to offer it k's bytes; offer reports whether they were taken.
	type door struct {
		name string
		open func(t *testing.T, dir string) (store func() *ckpt.Store, offer func(data []byte) bool)
	}
	doors := []door{
		{"disk file", func(t *testing.T, dir string) (func() *ckpt.Store, func([]byte) bool) {
			var s *ckpt.Store
			return func() *ckpt.Store { return s }, func(data []byte) bool {
				if err := os.WriteFile(filepath.Join(dir, k.String()+".ckpt"), data, 0o644); err != nil {
					t.Fatal(err)
				}
				var err error
				if s, err = ckpt.New(ckpt.Options{Dir: dir}); err != nil { // New indexes the file
					t.Fatal(err)
				}
				_, ok := s.Lookup(k)
				return ok
			}
		}},
		{"PUT /v1/ckpt", func(t *testing.T, dir string) (func() *ckpt.Store, func([]byte) bool) {
			s, err := ckpt.New(ckpt.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			handler := NewServer(NewCoordinator(testConfig(), nil, nil), s, nil, nil).Handler()
			return func() *ckpt.Store { return s }, func(data []byte) bool {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/ckpt/"+k.String(), bytes.NewReader(data)))
				if rec.Code != http.StatusNoContent && rec.Code != http.StatusBadRequest {
					t.Errorf("upload answered %d, want 204 or 400", rec.Code)
				}
				return rec.Code == http.StatusNoContent
			}
		}},
	}

	for _, d := range doors {
		for _, dmg := range damages {
			t.Run(d.name+"/"+dmg.name, func(t *testing.T) {
				dir := t.TempDir()
				store, offer := d.open(t, dir)
				if offer(dmg.data) {
					t.Fatal("the damaged bytes were taken")
				}
				if store().Contains(k) {
					t.Error("the refused key is indexed")
				}
				if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
					t.Errorf("the refusal left %d files behind (%v)", len(ents), err)
				}
				if !offer(clean.Bytes()) {
					t.Fatal("the clean bytes were refused after the damaged ones")
				}
			})
		}
	}
}

// TestKeyCannotLeaveDir: a key names its file, so the one key validator
// accepts only keys whose name is a single path element. The upload is
// the reproduction from the issue — Go's {key} wildcard matches the
// escaped segment and PathValue hands back "../../escaped-…", which the
// parent commit answered 204 and wrote two directories above Dir.
func TestKeyCannotLeaveDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "store")
	store, err := ckpt.New(ckpt.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(NewCoordinator(testConfig(), nil, nil), store, nil, nil).Handler())
	defer ts.Close()
	var body bytes.Buffer
	if _, err := snapAt(t, 4000).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/ckpt/..%2F..%2Fescaped-0000000000000001-1-4000"
	req, err := http.NewRequest("PUT", url, bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT %s answered %d, want 400", url, resp.StatusCode)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("the upload left %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workload := range []string{"gzip", "perlbmk", "two-part", "-", "a.b", "..", "", "x_1"} {
		k := ckpt.Key{Workload: workload, Hash: 0xfeed, Scale: 2000, Instr: 123456}
		if got, ok := ckpt.ParseKey(k.String()); !ok || got != k {
			t.Errorf("ParseKey(%q) = %+v, %v; want the key back", k.String(), got, ok)
		}
	}
	for _, workload := range []string{"../../escaped", "a/b", `a\b`, "/abs"} {
		k := ckpt.Key{Workload: workload, Hash: 1, Scale: 1, Instr: 4000}
		if got, ok := ckpt.ParseKey(k.String()); ok {
			t.Errorf("ParseKey(%q) accepted %+v", k.String(), got)
		}
	}
}
