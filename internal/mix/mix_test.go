package mix

import (
	"hash/fnv"
	"testing"
)

// The values below were computed by the per-package copies this
// package replaced. Guest programs, fill words, the BBV projection,
// seeded sample selection and fault verdicts all derive from them, so
// a change here silently changes every experiment.
func TestPinnedValues(t *testing.T) {
	r := NewRNG(1)
	for i, want := range []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b} {
		if got := r.Next(); got != want {
			t.Errorf("RNG(1) value %d = %#x, want %#x", i, got, want)
		}
	}
	for _, c := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{gamma, 0xe220a8397b1dcdaf},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
	if got, want := Entry(5, 3, 7), uint64(0xc67a08917e08190a); got != want {
		t.Errorf("Entry(5, 3, 7) = %#x, want %#x", got, want)
	}
}

// Words through FNV-1a must hash each word's bytes low byte first,
// across the internal buffer boundary too.
func TestWordsIsBytewiseFNV(t *testing.T) {
	ws := make([]uint64, 200)
	for i := range ws {
		ws[i] = uint64(i) * gamma
	}
	h := fnv.New64a()
	if err := NewWriter(h).Words(ws...); err != nil {
		t.Fatal(err)
	}
	want := uint64(0xcbf29ce484222325)
	for _, w := range ws {
		for i := 0; i < 8; i++ {
			want = (want ^ (w >> (8 * i) & 0xff)) * 0x100000001b3
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Words through fnv.New64a = %#x, byte-wise FNV-1a = %#x", got, want)
	}
}

func TestRNGPermDeterministic(t *testing.T) {
	t.Parallel()
	a := NewRNG(7).Perm(20)
	b := NewRNG(7).Perm(20)
	seen := make([]bool, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic")
		}
		if seen[a[i]] {
			t.Fatalf("Perm repeated element %d", a[i])
		}
		seen[a[i]] = true
	}
}

func TestRNGPick(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[r.Pick([]int{1, 2, 1})]++
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("weighted pick ignored weights: %v", counts)
	}
	if r.Pick([]int{0, 0}) != 0 {
		t.Fatal("zero weights must fall back to 0")
	}
}
