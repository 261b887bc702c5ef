package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestGolden locks down the rendered experiment artefacts at a small
// fixed scale and benchmark subset. The sampling pipeline is
// deterministic end to end (internal/check.PolicyDeterminism enforces
// it), so every byte of these renders is reproducible; any diff here is
// a behaviour change that must be reviewed, then accepted with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration render is slow")
	}
	opts := Options{Scale: 50_000, Benchmarks: []string{"gzip", "perlbmk"}}
	// CI's cache-equivalence job points REPRO_CKPT_DIR at a shared
	// directory: the golden bytes must be identical with checkpoints
	// persisted and restored across test processes.
	if dir := os.Getenv("REPRO_CKPT_DIR"); dir != "" {
		st, err := ckpt.New(ckpt.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		opts.CkptStore = st
	}
	r := NewRunner(opts)
	renders := []struct {
		name string
		run  func(*bytes.Buffer) error
	}{
		{"table1", func(b *bytes.Buffer) error { return Table1(b) }},
		{"table2", func(b *bytes.Buffer) error { return Table2(r, b) }},
		{"figure2", func(b *bytes.Buffer) error { return Figure2(r, b) }},
		{"tableci", func(b *bytes.Buffer) error { return TableCI(r, b) }},
	}
	for _, c := range renders {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create golden files)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					c.name, path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenBatchInvariance renders the golden artefacts once per
// event-batch capacity and requires every render to match the golden
// bytes exactly: the batched event pipeline is host-side plumbing and
// must be invisible in the paper's tables and figures.
func TestGoldenBatchInvariance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration render is slow")
	}
	for _, bs := range []int{1, 3, 64, 4096} {
		bs := bs
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Scale:      50_000,
				Benchmarks: []string{"gzip", "perlbmk"},
				VM:         vm.Config{EventBatch: bs},
			}
			r := NewRunner(opts)
			for _, c := range []struct {
				name string
				run  func(*bytes.Buffer) error
			}{
				{"table2", func(b *bytes.Buffer) error { return Table2(r, b) }},
				{"figure2", func(b *bytes.Buffer) error { return Figure2(r, b) }},
				{"tableci", func(b *bytes.Buffer) error { return TableCI(r, b) }},
			} {
				var buf bytes.Buffer
				if err := c.run(&buf); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s at batch %d differs from golden render", c.name, bs)
				}
			}
		})
	}
}
