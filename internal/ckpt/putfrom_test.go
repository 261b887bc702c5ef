package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vm"
)

func encode(t testing.TB, snap *vm.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// depositors are the store's two deposit paths; what must hold for both
// (the write-failure ladder, torn files) ranges over them.
var depositors = []struct {
	name string
	put  func(t *testing.T, s *Store, k Key, snap *vm.Snapshot)
}{
	{"Put", func(_ *testing.T, s *Store, k Key, snap *vm.Snapshot) { s.Put(k, snap) }},
	{"PutFrom", func(t *testing.T, s *Store, k Key, snap *vm.Snapshot) {
		if err := s.PutFrom(k, bytes.NewReader(encode(t, snap))); err != nil {
			t.Fatalf("PutFrom(%s): %v", k, err)
		}
	}},
}

// unread fails the test when anything reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body of an already-held key was read")
	return 0, io.EOF
}

// TestPutFromKeepsBytes pins what the streaming deposit keeps: with a
// disk tier, the uploaded bytes as the key's file and nothing in memory
// until a lookup asks; without one, the decoded snapshot. A key already
// held, in either tier, is counted and answered without its body.
func TestPutFromKeepsBytes(t *testing.T) {
	t.Parallel()
	k, data := testKey(1000), encode(t, snapAt(t, 1000))

	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutFrom(k, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.DiskWrites != 1 || st.DiskEntries != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after one upload: %+v", st)
	}
	if file, err := os.ReadFile(filepath.Join(dir, k.String()+".ckpt")); err != nil || !bytes.Equal(file, data) {
		t.Fatalf("the file is not the upload (%v)", err)
	}
	if err := s.PutFrom(k, unread{t}); err != nil {
		t.Fatal(err)
	}
	if snap, ok := s.Lookup(k); !ok || snap.Instructions() != 1000 {
		t.Fatal("uploaded key not served")
	}
	if err := s.PutFrom(k, unread{t}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 1 || st.DupPuts != 2 || st.DiskLoads != 1 || st.Entries != 1 {
		t.Fatalf("after a lookup and two duplicates: %+v", st)
	}

	m := NewMemory()
	if err := m.PutFrom(k, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("memory-only store after one upload: %+v", st)
	}
}

// cutAfter serves n bytes of data and then fails like a dropped
// connection.
func cutAfter(data []byte, n int) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:n]), failing{})
}

// failing fails every read and every write.
type failing struct{}

func (failing) Read([]byte) (int, error)  { return 0, errors.New("connection reset") }
func (failing) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestSpoolHidesWriteFailureFromTheReader: a disk that fails mid-upload
// must not fail the decoder reading through the tee (that would refuse a
// good upload as corrupt); the failure is kept for PutFrom to book.
func TestSpoolHidesWriteFailureFromTheReader(t *testing.T) {
	data := encode(t, snapAt(t, 1000))
	sp := &spool{w: failing{}}
	if _, err := accept(testKey(1000), io.TeeReader(bytes.NewReader(data), sp)); err != nil {
		t.Fatalf("decode through a failing spool: %v", err)
	}
	if sp.err == nil {
		t.Fatal("the write failure was lost")
	}
}

// TestPutFromRejectsLeaveNothing: every check an upload can fail — the
// digest footer, the structure, the key's instruction count, the end of
// the stream — refuses it with ErrCorrupt and leaves no file, no temp
// file, no index entry and no memory entry, with a disk tier or without.
func TestPutFromRejectsLeaveNothing(t *testing.T) {
	t.Parallel()
	good := encode(t, snapAt(t, 1000))
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	footer := bytes.Clone(good)
	footer[len(footer)-1] ^= 0x01
	cases := []struct {
		name string
		key  Key
		body func() io.Reader
	}{
		{"truncated", testKey(1000), func() io.Reader { return bytes.NewReader(good[:len(good)/2]) }},
		{"footer missing", testKey(1000), func() io.Reader { return bytes.NewReader(good[:len(good)-8]) }},
		{"flipped payload byte", testKey(1000), func() io.Reader { return bytes.NewReader(flipped) }},
		{"flipped footer bit", testKey(1000), func() io.Reader { return bytes.NewReader(footer) }},
		{"not a snapshot", testKey(1000), func() io.Reader { return bytes.NewReader(bytes.Repeat([]byte{0xff}, 4096)) }},
		{"wrong key", testKey(1001), func() io.Reader { return bytes.NewReader(good) }},
		{"bytes after the footer", testKey(1000), func() io.Reader { return bytes.NewReader(append(bytes.Clone(good), 0)) }},
		{"disconnect mid-body", testKey(1000), func() io.Reader { return cutAfter(good, len(good)/2) }},
		{"disconnect at the footer", testKey(1000), func() io.Reader { return cutAfter(good, len(good)) }},
	}
	for _, c := range cases {
		for _, tier := range []string{"disk", "memory"} {
			c, tier := c, tier
			t.Run(c.name+"/"+tier, func(t *testing.T) {
				t.Parallel()
				var opts Options
				if tier == "disk" {
					opts.Dir = t.TempDir()
				}
				s, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.PutFrom(c.key, c.body()); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("PutFrom = %v, want ErrCorrupt", err)
				}
				if st := s.Stats(); s.Contains(c.key) || st != (Stats{}) {
					t.Fatalf("a refused upload left its mark: %+v", st)
				}
				if opts.Dir != "" {
					if ents, err := os.ReadDir(opts.Dir); err != nil || len(ents) != 0 {
						t.Fatalf("a refused upload left %d files behind (%v)", len(ents), err)
					}
				}
				// The store still takes the good upload.
				if err := s.PutFrom(testKey(1000), bytes.NewReader(good)); err != nil || !s.Contains(testKey(1000)) {
					t.Fatalf("good upload after the refused one: %v", err)
				}
			})
		}
	}
}

// gated delivers its bytes only once every reader sharing the gate has
// been asked for some: the uploads it feeds are all past PutFrom's
// held-key check before any can finish.
type gated struct {
	r    io.Reader
	gate *sync.WaitGroup
	once sync.Once
}

func (g *gated) Read(p []byte) (int, error) {
	g.once.Do(func() {
		g.gate.Done()
		g.gate.Wait()
	})
	return g.r.Read(p)
}

// TestPutFromConcurrentSameKey: uploads of one key that overlap in time
// commit one deposit, count the rest as duplicates and leave one file.
func TestPutFromConcurrentSameKey(t *testing.T) {
	t.Parallel()
	const uploads = 4
	k, data := testKey(1000), encode(t, snapAt(t, 1000))
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var gate, wg sync.WaitGroup
	gate.Add(uploads)
	for i := 0; i < uploads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.PutFrom(k, &gated{r: bytes.NewReader(data), gate: &gate}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Puts != 1 || st.DupPuts != uploads-1 || st.DiskEntries != 1 || st.Entries != 0 {
		t.Fatalf("%d overlapping uploads of one key: %+v", uploads, st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != k.String()+".ckpt" {
		t.Fatalf("directory holds %v (%v), want the one file", ents, err)
	}
	if file, err := os.ReadFile(filepath.Join(dir, ents[0].Name())); err != nil || !bytes.Equal(file, data) {
		t.Fatalf("the file is not the upload (%v)", err)
	}
}

// TestPutFromRacesLookups is the race-detector test for the I/O PutFrom
// does outside the store lock: uploads of overlapping keys against
// Lookup, Nearest, Contains and Stats (CI runs it -race -count=10).
func TestPutFromRacesLookups(t *testing.T) {
	t.Parallel()
	const keys = 6
	s, err := New(Options{Dir: t.TempDir(), MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	datas := make([][]byte, keys)
	for i := range datas {
		datas[i] = encode(t, snapAt(t, uint64(500*(i+1))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				n := (i + g) % keys
				k := testKey(uint64(500 * (n + 1)))
				if g%2 == 0 {
					if err := s.PutFrom(k, bytes.NewReader(datas[n])); err != nil {
						t.Error(err)
					}
					continue
				}
				if snap, ok := s.Lookup(k); ok && snap.Instructions() != k.Instr {
					t.Errorf("Lookup(%s) served instr %d", k, snap.Instructions())
				}
				if snap, instr, ok := s.Nearest(k); ok && (instr > k.Instr || snap.Instructions() != instr) {
					t.Errorf("Nearest(%s) served instr %d", k, instr)
				}
				s.Contains(k)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Puts != keys || st.Puts+st.DupPuts != 2*keys || st.DiskEntries != keys {
		t.Fatalf("two uploaders over %d keys: %+v", keys, st)
	}
}
