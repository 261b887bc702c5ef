// Package mix holds the two primitives every reproducible value in the
// simulator is built from: the splitmix64 mixer and generator, and the
// little-endian word stream that feeds hash/fnv. Generated guest
// programs, block-device contents, the BBV projection, seeded sample
// selection, fault verdicts, checkpoint keys and the snapshot footer
// all derive from them, so "same seed, same result" holds bit for bit
// across platforms and Go releases (math/rand promises neither).
package mix

import (
	"encoding/binary"
	"io"
)

// gamma is splitmix64's increment, the odd 64-bit golden ratio.
const gamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer: a bijection on uint64 whose every
// output bit depends on every input bit.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Entry returns entry (row, col) of the pseudo-random matrix named by
// seed, without materialising the matrix: the BBV projection and the
// block device's unwritten sectors are such matrices.
func Entry(seed, row, col uint64) uint64 {
	return Mix64(row*gamma + col*0xbf58476d1ce4e5b9 + seed)
}

// RNG is a splitmix64 generator. NewRNG(s).Next() is splitmix64(s).
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with s.
func NewRNG(s uint64) *RNG { return &RNG{s: s} }

// Next returns the next 64-bit value of the stream.
func (r *RNG) Next() uint64 {
	r.s += gamma
	return Mix64(r.s)
}

// Float returns a float64 uniform in [0, 1).
func (r *RNG) Float() float64 { return float64(r.Next()>>11) / float64(1<<53) }

// Intn returns a value in [0, n), or 0 when n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// Perm returns a pseudo-random permutation of 0..n-1 (Fisher–Yates
// driven by Next).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Pick returns an index chosen with probability proportional to its
// non-negative weight, or 0 when every weight is zero.
func (r *RNG) Pick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	v := r.Intn(total)
	for i, w := range weights {
		if v < w {
			return i
		}
		v -= w
	}
	return len(weights) - 1
}

// Writer writes words little-endian through a buffer it owns, so the
// buffer reaches the heap once per Writer and not once per Words call.
// Through a hash/fnv hash the words give the byte-wise FNV-1a that the
// digests and checkpoint keys are defined as; a hash.Hash never returns
// a write error, so those callers drop it.
type Writer struct {
	w   io.Writer
	buf [512]byte
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Words writes ws.
func (x *Writer) Words(ws ...uint64) error {
	for len(ws) > 0 {
		n := min(len(ws), len(x.buf)/8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(x.buf[i*8:], ws[i])
		}
		if _, err := x.w.Write(x.buf[:n*8]); err != nil {
			return err
		}
		ws = ws[n:]
	}
	return nil
}
