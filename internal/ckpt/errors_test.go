package ckpt

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vm"
)

// load is a disk load with its typed error visible — loadLocked under
// the lock. Lookup shows the same failure only as a miss.
func load(s *Store, k Key) (*vm.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(k)
}

// mangleFile rewrites a checkpoint file in place via fn.
func mangleFile(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadTypedErrors drives every disk-tier failure path and asserts
// the typed classification: bad bytes are ErrCorrupt (and the file is
// removed so no future store resurrects it), filesystem-level failures
// are ErrIO (the file, if any, is left alone). Either way the Lookup
// that meets the failure is a miss, drops the entry, and the load is not
// retried.
func TestLoadTypedErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name        string
		mangle      func(t *testing.T, path string)
		want        error
		wantRemoved bool
	}{
		{
			name: "truncated",
			mangle: func(t *testing.T, path string) {
				mangleFile(t, path, func(b []byte) []byte { return b[:len(b)/2] })
			},
			want:        ErrCorrupt,
			wantRemoved: true,
		},
		{
			name: "empty",
			mangle: func(t *testing.T, path string) {
				mangleFile(t, path, func([]byte) []byte { return nil })
			},
			want:        ErrCorrupt,
			wantRemoved: true,
		},
		{
			name: "flipped-byte",
			mangle: func(t *testing.T, path string) {
				mangleFile(t, path, func(b []byte) []byte { b[100] ^= 0x01; return b })
			},
			want:        ErrCorrupt,
			wantRemoved: true,
		},
		{
			name: "bad-magic",
			mangle: func(t *testing.T, path string) {
				mangleFile(t, path, func(b []byte) []byte { b[0] ^= 0xff; return b })
			},
			want:        ErrCorrupt,
			wantRemoved: true,
		},
		{
			name: "stale-version",
			mangle: func(t *testing.T, path string) {
				mangleFile(t, path, func(b []byte) []byte { b[4], b[5] = 0xff, 0xff; return b })
			},
			want:        ErrCorrupt,
			wantRemoved: true,
		},
		{
			name: "vanished",
			mangle: func(t *testing.T, path string) {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			},
			want:        ErrIO,
			wantRemoved: true, // trivially: the mangle itself removed it
		},
		{
			// Open succeeds and the first read fails: the bytes were
			// never seen, so the entry is dropped but the path kept.
			name: "unreadable",
			mangle: func(t *testing.T, path string) {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			},
			want: ErrIO,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			seedStore, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(1000)
			seedStore.Put(k, snapAt(t, 1000))
			path := filepath.Join(dir, k.String()+".ckpt")

			// Open the store before mangling: New only indexes names,
			// so the entry stays indexed and the load path is the one
			// that meets the damage (as it would mid-run).
			s, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			c.mangle(t, path)
			snap, err := load(s, k)
			if snap != nil {
				t.Fatal("the load served a snapshot across a disk fault")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("load error = %v, want %v", err, c.want)
			}
			if errors.Is(err, ErrCorrupt) && errors.Is(err, ErrIO) {
				t.Fatalf("load error %v matches both sentinels", err)
			}
			if _, ok := s.Lookup(k); ok {
				t.Fatal("Lookup served a snapshot across a disk fault")
			}
			if _, statErr := os.Stat(path); c.wantRemoved != errors.Is(statErr, fs.ErrNotExist) {
				t.Errorf("file removed = %v, want %v (stat: %v)", errors.Is(statErr, fs.ErrNotExist), c.wantRemoved, statErr)
			}
			// Degraded to a miss: the failed entry must not be retried.
			if _, ok := s.Lookup(k); ok || s.Contains(k) {
				t.Fatal("the dropped entry is still served or indexed")
			}
			if st := s.Stats(); st.DiskErrors != 1 {
				t.Fatalf("DiskErrors = %d, want 1 (no retries)", st.DiskErrors)
			}
		})
	}
}

// TestLoadInstrMismatch plants a valid snapshot under a filename whose
// key claims a different instruction count: the decode succeeds but the
// content check must classify it ErrCorrupt.
func TestLoadInstrMismatch(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	seedStore, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1000)
	seedStore.Put(k, snapAt(t, 1000))
	wrong := testKey(2000)
	data, err := os.ReadFile(filepath.Join(dir, k.String()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wrong.String()+".ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := load(s, wrong); snap != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("load(wrong instr) = %v, %v; want nil, ErrCorrupt", snap, err)
	}
	// The honest entry survives untouched.
	if snap, err := load(s, k); snap == nil || err != nil {
		t.Fatalf("load(correct key) = %v, %v", snap, err)
	}
}

// TestStoreWriteDegradation makes every disk write fail for real, through
// both deposit paths: "write" removes the store's directory, so the temp
// file cannot be created; "rename" puts a directory at each key's file
// name, so the commit fails after produce and fsync and the temp file
// must be cleaned up. After maxWriteFails consecutive failures the store
// must stop writing (one bounded error burst, not one per deposit) while
// the in-memory tier keeps serving every entry, and no checkpoint or
// temp file is left behind.
func TestStoreWriteDegradation(t *testing.T) {
	t.Parallel()
	const deposits = maxWriteFails + 3
	damages := []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"write", func(t *testing.T, dir string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}},
		{"rename", func(t *testing.T, dir string) {
			for i := 1; i <= deposits; i++ {
				if err := os.Mkdir(filepath.Join(dir, testKey(uint64(1000*i)).String()+".ckpt"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, d := range depositors {
		for _, b := range damages {
			d, b := d, b
			t.Run(d.name+"/"+b.name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				s, err := New(Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				b.damage(t, dir)
				for i := 1; i <= deposits; i++ {
					n := uint64(1000 * i)
					d.put(t, s, testKey(n), snapAt(t, n))
				}
				st := s.Stats()
				if !st.DiskDegraded {
					t.Fatal("store did not degrade to the memory tier")
				}
				if st.WriteFails != maxWriteFails {
					t.Fatalf("WriteFails = %d, want exactly %d (writes must stop after degradation)", st.WriteFails, maxWriteFails)
				}
				if st.DiskWrites != 0 || st.DiskEntries != 0 || st.Puts != deposits {
					t.Fatalf("degraded store persisted entries or lost deposits: %+v", st)
				}
				if ents, err := os.ReadDir(dir); err == nil {
					for _, e := range ents {
						if !e.IsDir() {
							t.Fatalf("failed writes left %s behind", e.Name())
						}
					}
				}
				for i := 1; i <= deposits; i++ {
					if _, ok := s.Lookup(testKey(uint64(1000 * i))); !ok {
						t.Fatalf("memory tier lost entry %d after disk degradation", i)
					}
				}
			})
		}
	}
}

// TestStoreTornWriteDetectedOnRead commits a checkpoint through both
// deposit paths and then truncates the file, as a crash that reached
// the disk only partly would leave it: the deposit reported success, and
// the short file is caught by the digest footer when a later process
// reads it.
func TestStoreTornWriteDetectedOnRead(t *testing.T) {
	t.Parallel()
	for _, d := range depositors {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s1, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			k := testKey(1000)
			d.put(t, s1, k, snapAt(t, 1000))
			if st := s1.Stats(); st.DiskWrites != 1 || st.WriteFails != 0 {
				t.Fatalf("the deposit did not commit a file: %+v", st)
			}
			path := filepath.Join(dir, k.String()+".ckpt")
			mangleFile(t, path, func(b []byte) []byte { return b[:len(b)-len(b)/3] })
			s2, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if snap, err := load(s2, k); snap != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load(torn file) = %v, %v; want nil, ErrCorrupt", snap, err)
			}
		})
	}
}

// TestStoreDiscard removes an entry from every tier, including the disk
// file, so a future store over the same directory cannot resurrect it.
func TestStoreDiscard(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1000)
	s.Put(k, snapAt(t, 1000))
	s.Discard(k)
	if s.Contains(k) {
		t.Fatal("store still claims the discarded key")
	}
	if _, err := os.Stat(filepath.Join(dir, k.String()+".ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("discarded file still on disk: %v", err)
	}
	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Contains(k) {
		t.Fatal("fresh store resurrected the discarded key")
	}
	if st := s.Stats(); st.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", st.Discards)
	}
}
