package workload

import (
	"hash/fnv"

	"repro/internal/mix"
)

// RNG and NewRNG are mix's generator under the names the benchmark
// harness (bench/workloads.go) spells; new code uses mix directly.
type RNG = mix.RNG

// NewRNG returns mix.NewRNG(seed).
func NewRNG(seed uint64) *RNG { return mix.NewRNG(seed) }

// SeedFromName derives a stable 64-bit seed from a benchmark name: the
// FNV-1a hash of its bytes. It decides every generated guest program.
func SeedFromName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
