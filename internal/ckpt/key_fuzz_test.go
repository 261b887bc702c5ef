package ckpt

import (
	"path/filepath"
	"testing"
)

// FuzzParseKey holds the one key validator to its two promises on any
// string the network could put in a URL: an accepted key survives the
// round trip through its own name, and that name is a single path
// element — the key's file is a direct child of Dir, wherever Dir is.
func FuzzParseKey(f *testing.F) {
	for _, seed := range []string{
		"gzip-abcdef0123456789-2000-1000",
		"../../escaped-0000000000000001-1-4000", // the traversal PUT /v1/ckpt answered 204 to
		"two-part-name-00000000000000ff-7-42",   // a workload containing '-'
		"-0000000000000001-1-4000",              // an empty workload
		`a\b-1-1-1`,
		"/abs-1-1-1",
		"..-1-1-1",
		"x-1-+5-9",
		"x-1-1",
	} {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, name string) {
		k, ok := ParseKey(name)
		if !ok {
			return
		}
		if again, ok := ParseKey(k.String()); !ok || again != k {
			t.Fatalf("ParseKey(%q) = %+v, but its own name %q parses to %+v, %v", name, k, k.String(), again, ok)
		}
		path := filepath.Join(dir, k.String()+".ckpt")
		if filepath.Dir(path) != dir || filepath.Base(path) != k.String()+".ckpt" {
			t.Fatalf("ParseKey(%q) names %s, which is not a direct child of %s", name, path, dir)
		}
	})
}
