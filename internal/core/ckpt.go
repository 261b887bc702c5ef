package core

// Checkpoint participation: how a Session deposits snapshots into and
// resumes from a ckpt.Store without perturbing either the simulation
// results or the modelled paper cost.
//
// The ground rule is that VM statistics are *partition-sensitive*: the
// architectural state at instruction N is independent of how the run
// was divided into Run calls, but the translation-cache counters are
// not (stopping mid-block costs a retranslation on resume). Dynamic
// Sampling monitors those counters, so a warm start is only
// indistinguishable from cold execution when the stored snapshot lies
// on the exact trajectory the session would itself have produced.
//
// A session therefore tracks whether it is on the *canonical*
// trajectory: every Run call so far started at a multiple of the base
// interval L and was exactly L long (the partitioning FullTiming,
// Dynamic at 1M, and the SimPoint measurement pass naturally use). All
// canonical sessions of one workload share bit-identical machine state
// at every interval boundary, so their checkpoints are interchangeable.
// The first non-aligned Run call makes the session non-canonical and it
// silently stops participating — SMARTS and coarse-interval Dynamic
// run exactly as they would without a store.
//
// Host-cost accounting stays checkpoint-blind: a transparent fast-mode
// hit charges the same hostcost.Fast units the skipped execution would
// have, and FastForwardVia charges nothing (callers still model the
// paper's fixed restore overhead via Meter().ChargeRestore). Tables 1–2
// and Figure 2 are therefore byte-identical with the store on, off, or
// pre-warmed — the cache-equivalence tests pin this.

import (
	"hash/fnv"

	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/mix"
	"repro/internal/vm"
)

// workloadHash identifies one execution trajectory: the guest image
// plus every parameter that influences what the machine computes. Two
// sessions with equal hashes (and scales) may exchange checkpoints.
func workloadHash(digest, total, interval uint64, cfg vm.Config) uint64 {
	n := cfg.Normalized()
	h := fnv.New64a()
	mix.NewWriter(h).Words(
		digest, total, interval,
		n.MemSpan, uint64(n.TCMaxBlocks), uint64(n.TLBEntries),
		uint64(n.MaxBlockLen), 0, // the block device's seed, when it had one
	)
	return h.Sum64()
}

// ckptKey addresses this session's checkpoint at an absolute
// instruction count.
func (s *Session) ckptKey(instr uint64) ckpt.Key {
	return ckpt.Key{
		Workload: s.spec.Name,
		Hash:     s.wlHash,
		Scale:    s.opts.Scale,
		Instr:    instr,
	}
}

// noteRun updates the canonical-trajectory flag for a Run call of n
// instructions starting at the current position. Zero-length calls
// (exhausted budget) are ignored.
func (s *Session) noteRun(n uint64) {
	if n == 0 || !s.canonical {
		return
	}
	if s.executed%s.interval != 0 || n != s.interval {
		s.canonical = false
	}
}

// maybeDeposit stores a snapshot of the current machine state when the
// session sits on a canonical stride boundary. Contains is checked
// first so only the first session to reach a boundary pays for the
// capture; later sessions (whose state is bit-identical there) skip.
func (s *Session) maybeDeposit() {
	if s.ckpt == nil || !s.canonical || s.executed == 0 {
		return
	}
	if s.executed%s.ckptEvery != 0 || s.halted() {
		return
	}
	k := s.ckptKey(s.executed)
	if s.ckpt.Contains(k) {
		return
	}
	s.ckpt.Put(k, s.machine.Snapshot())
}

// fastHit transparently substitutes a stored checkpoint for one
// fast-mode base interval. It only fires when the restored state is
// provably the state execution would produce (canonical trajectory,
// aligned interval, stride boundary) and charges exactly what the
// skipped execution would have, so results and modelled cost are
// unchanged — only host wall-clock shrinks.
func (s *Session) fastHit(n uint64) bool {
	if s.ckpt == nil || !s.canonical {
		return false
	}
	if n != s.interval || s.executed%s.interval != 0 || (s.executed+n)%s.ckptEvery != 0 {
		return false
	}
	snap, ok := s.ckpt.Lookup(s.ckptKey(s.executed + n))
	if ok {
		s.pending = snap
		s.ob.hit(n)
		s.executed += n
		s.charge(hostcost.Fast, n)
	}
	return ok
}

// settle restores the machine to the pending checkpoint, if any. One that
// fails to restore is discarded, and the session walks free from where
// the machine is back to the position its hits were charged for.
func (s *Session) settle() {
	if s.pending == nil {
		return
	}
	snap, target, start := s.pending, s.executed, s.ob.now()
	s.pending = nil
	if s.machine.Restore(snap) == nil {
		s.ob.restored(start)
		return
	}
	s.ckpt.Discard(s.ckptKey(target))
	s.executed = s.machine.Stats().Instructions
	s.FastForwardVia(target)
}

// halted reads the session's position: the pending checkpoint when fast
// hits have moved the session past the machine (as StatsDelta does).
func (s *Session) halted() bool {
	if s.pending != nil {
		return s.pending.Halted()
	}
	return s.machine.Halted()
}

// restoreTo moves the session to the absolute instruction count instr
// by restoring snap, the store's checkpoint there; the restore replaces
// any pending one. A snapshot that decoded cleanly but fails to restore
// is discarded from every tier and the session stays where it was.
func (s *Session) restoreTo(snap *vm.Snapshot, instr uint64) bool {
	start := s.ob.now()
	if err := s.machine.Restore(snap); err != nil {
		s.ckpt.Discard(s.ckptKey(instr))
		return false
	}
	s.ob.restored(start)
	s.ob.hit(instr - s.executed)
	s.pending = nil
	s.executed = instr
	return true
}

// FastForwardVia advances the session to the absolute instruction
// count target at full VM speed without charging host cost, resuming
// from the nearest stored checkpoint at or below target when one is
// available. It models the paper's dispatch-to-checkpoint: SimPoint
// reaches each simulation point from stored state rather than by
// re-executing, paying only the fixed restore overhead (charged by the
// caller via Meter().ChargeRestore, store hit or not).
//
// Without an attached store this devolves to a single free run to
// target. After a successful restore the session is back on the
// canonical trajectory (checkpoints are only deposited there), so the
// remaining gap is walked in base-interval steps, depositing at stride
// boundaries along the way for later sessions.
func (s *Session) FastForwardVia(target uint64) uint64 {
	if target > s.total {
		target = s.total
	}
	start := s.executed
	for s.ckpt != nil && target > s.executed {
		snap, instr, ok := s.ckpt.Nearest(s.ckptKey(target))
		if !ok || instr <= s.executed {
			break
		}
		if !s.restoreTo(snap, instr) {
			// Degradation ladder: with the bad snapshot discarded, the
			// next-lower checkpoint is tried; with none left we fall
			// through and walk from scratch.
			continue
		}
		s.canonical = instr%s.interval == 0
		break
	}
	for s.executed < target && !s.halted() {
		n := target - s.executed
		if s.ckpt != nil && s.canonical && s.executed%s.interval == 0 && n > s.interval {
			n = s.interval
		}
		if s.burst(hostcost.Fast, n, nil, true) == 0 {
			break
		}
	}
	return s.executed - start
}
