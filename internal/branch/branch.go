// Package branch implements the timing simulator's branch prediction
// hardware: a gshare direction predictor, a branch target buffer, and a
// return address stack, with the Table 1 geometry as defaults.
package branch

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mix"
)

// Config describes the predictor complex.
type Config struct {
	// GshareEntries is the number of 2-bit counters (16K in Table 1).
	GshareEntries int
	// HistoryBits is the global-history length folded into the index.
	HistoryBits int
	// BTBEntries is the direct-mapped target buffer size (32K).
	BTBEntries int
	// RASEntries is the return-address-stack depth (16).
	RASEntries int
}

// Default returns the Table 1 configuration: 16K-entry gshare,
// 32K-entry BTB, 16-entry RAS.
func Default() Config {
	return Config{GshareEntries: 16 << 10, HistoryBits: 12, BTBEntries: 32 << 10, RASEntries: 16}
}

// Stats holds prediction counters.
type Stats struct {
	Branches   uint64 // conditional branches predicted
	DirMispred uint64 // direction mispredictions
	TargetPred uint64 // BTB/indirect target predictions
	TargetMiss uint64 // BTB target mispredictions
	Returns    uint64 // RAS predictions
	ReturnMiss uint64 // RAS mispredictions
}

// Predictor is the combined gshare + BTB + RAS predictor.
type Predictor struct {
	cfg Config

	counters []uint8 // 2-bit saturating
	gmask    uint64
	history  uint64
	histMask uint64

	btbTags    []uint64
	btbTargets []uint64
	btbMask    uint64

	ras    []uint64
	rasTop int

	stats Stats
}

// New builds a predictor; zero-value fields take Table 1 defaults. It
// panics, naming the field, on a negative size or a table size that is
// not a power of two.
func New(cfg Config) *Predictor {
	def := Default()
	if cfg.GshareEntries == 0 {
		cfg.GshareEntries = def.GshareEntries
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = def.HistoryBits
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = def.BTBEntries
	}
	if cfg.RASEntries == 0 {
		cfg.RASEntries = def.RASEntries
	}
	for _, f := range []struct {
		name string
		v    int
		pow2 bool
	}{
		{"GshareEntries", cfg.GshareEntries, true}, {"HistoryBits", cfg.HistoryBits, false},
		{"BTBEntries", cfg.BTBEntries, true}, {"RASEntries", cfg.RASEntries, false},
	} {
		if f.v <= 0 {
			panic(fmt.Sprintf("branch: bad config: %s = %d, must be positive", f.name, f.v))
		}
		if f.pow2 && f.v&(f.v-1) != 0 {
			panic(fmt.Sprintf("branch: bad config: %s = %d, must be a power of two", f.name, f.v))
		}
	}
	return &Predictor{
		cfg:        cfg,
		counters:   make([]uint8, cfg.GshareEntries),
		gmask:      uint64(cfg.GshareEntries - 1),
		histMask:   (uint64(1) << cfg.HistoryBits) - 1,
		btbTags:    make([]uint64, cfg.BTBEntries),
		btbTargets: make([]uint64, cfg.BTBEntries),
		btbMask:    uint64(cfg.BTBEntries - 1),
		ras:        make([]uint64, cfg.RASEntries),
	}
}

// Stats returns prediction counters.
func (p *Predictor) Stats() Stats { return p.stats }

// Digest returns an FNV-1a hash over the predictor's complete state:
// every gshare counter, the global history, the BTB tags and targets,
// the RAS contents and top-of-stack, and the statistics. Two predictors
// with equal digests predict every future stream identically;
// timing.Snapshot carries it so the equivalence harnesses pin predictor
// state the way cache.Digest pins replacement state.
func (p *Predictor) Digest() uint64 {
	h := fnv.New64a()
	h.Write(p.counters)
	w := mix.NewWriter(h)
	w.Words(p.history)
	w.Words(p.btbTags...)
	w.Words(p.btbTargets...)
	w.Words(p.ras...)
	s := p.stats
	w.Words(uint64(p.rasTop), s.Branches, s.DirMispred, s.TargetPred, s.TargetMiss, s.Returns, s.ReturnMiss)
	return h.Sum64()
}

// OnBranch predicts a conditional branch at pc, updates the predictor
// with the actual outcome, and reports whether the direction was
// mispredicted.
func (p *Predictor) OnBranch(pc uint64, taken bool) (mispredicted bool) {
	idx := (pc>>3 ^ p.history) & p.gmask
	ctr := p.counters[idx]
	pred := ctr >= 2
	if taken {
		if ctr < 3 {
			p.counters[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.counters[idx] = ctr - 1
	}
	p.history = (p.history<<1 | b2u(taken)) & p.histMask
	p.stats.Branches++
	if pred != taken {
		p.stats.DirMispred++
		return true
	}
	return false
}

// OnTarget predicts the destination of a taken control transfer (direct
// jump re-steer or indirect jump) via the BTB, updates the entry with the
// actual target, and reports a target misprediction.
func (p *Predictor) OnTarget(pc, target uint64) (mispredicted bool) {
	idx := (pc >> 3) & p.btbMask
	tag := pc >> 3
	p.stats.TargetPred++
	hit := p.btbTags[idx] == tag+1 && p.btbTargets[idx] == target
	p.btbTags[idx] = tag + 1
	p.btbTargets[idx] = target
	if !hit {
		p.stats.TargetMiss++
		return true
	}
	return false
}

// OnCall records a call's return address on the RAS.
func (p *Predictor) OnCall(returnPC uint64) {
	p.ras[p.rasTop] = returnPC
	if p.rasTop++; p.rasTop == len(p.ras) {
		p.rasTop = 0
	}
}

// OnReturn predicts a return via the RAS and reports misprediction.
func (p *Predictor) OnReturn(target uint64) (mispredicted bool) {
	if p.rasTop == 0 {
		p.rasTop = len(p.ras)
	}
	p.rasTop--
	p.stats.Returns++
	if p.ras[p.rasTop] != target {
		p.stats.ReturnMiss++
		return true
	}
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
