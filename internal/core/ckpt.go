package core

// Checkpoint participation: how a Session deposits snapshots and
// trajectory records into a ckpt.Store and skips or resumes from them
// without perturbing either the simulation results or the modelled
// paper cost.
//
// The ground rule is that VM statistics are *partition-sensitive*: the
// architectural state at instruction N is independent of how the run
// was divided into Run calls, but the translation-cache counters are
// not (stopping mid-block costs a retranslation on resume). Dynamic
// Sampling monitors those counters, so a warm start is only
// indistinguishable from cold execution when the stored state lies on
// the exact trajectory the session would itself have produced.
//
// A session therefore tracks whether it is on the *canonical*
// trajectory: every Run call so far started at a multiple of the base
// interval L and was exactly L long (the partitioning FullTiming,
// Dynamic at 1M, and the SimPoint measurement pass naturally use). All
// canonical sessions of one workload share bit-identical machine state
// at every interval boundary, so what one deposits there serves all.
// The first non-aligned Run call makes the session non-canonical and it
// silently stops participating — SMARTS and coarse-interval Dynamic
// run exactly as they would without a store.
//
// A canonical session leaves a trajectory record (the three monitored
// statistics, 24 bytes) at every interval boundary a fast burst ends
// on, and a snapshot at every stride boundary. Between fast intervals a policy
// reads only those statistics, so a fast interval whose end has a
// record (or a snapshot) is skipped: the session moves, the machine
// stays. It catches up only when something reads it (settle), from the
// nearest snapshot ahead of it and then in base intervals; the stride
// bounds that walk.
//
// Host-cost accounting stays checkpoint-blind: a skip charges the same
// hostcost.Fast units the skipped execution would have, and
// FastForwardVia and the catch-up walk charge nothing (callers still
// model the paper's fixed restore overhead via Meter().ChargeRestore).
// Tables 1–2 and Figure 2 are therefore byte-identical with the store
// on, off, or pre-warmed — the cache-equivalence tests pin this.

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

// maybeDeposit leaves a trajectory record when a fast burst ends on a
// canonical interval boundary, and a snapshot when a burst in any mode
// ends on a canonical stride boundary. Contains is checked first so
// only the first session to reach a stride boundary pays for the
// capture; later sessions (whose state is bit-identical there) skip.
func (s *Session) maybeDeposit(mode hostcost.Mode) {
	if s.ckpt == nil || !s.canonical || s.executed == 0 {
		return
	}
	if s.executed%s.interval != 0 || s.halted() {
		return
	}
	k := s.ckptKey(s.executed)
	if mode == hostcost.Fast {
		s.ckpt.PutRecord(k, s.interval, ckpt.RecordOf(s.machine.Stats()))
	}
	if s.executed%s.ckptEvery != 0 || s.ckpt.Contains(k) {
		return
	}
	s.ckpt.Put(k, s.machine.Snapshot())
}

// fastHit skips one fast-mode base interval when the store holds the
// statistics at its end: a trajectory record, or else a snapshot at a
// stride boundary. It only fires when those are provably what execution
// would produce (canonical trajectory, aligned interval) and charges
// exactly what the skipped execution would have, so results and
// modelled cost are unchanged — only host wall-clock shrinks. The
// session moves ahead of its machine; Stat and Done answer from the
// record until settle catches the machine up.
func (s *Session) fastHit(n uint64) bool {
	if s.ckpt == nil || !s.canonical || n != s.interval || s.executed%s.interval != 0 {
		return false
	}
	end := s.executed + n
	k := s.ckptKey(end)
	rec, ok := s.ckpt.LookupRecord(k, s.interval)
	if !ok && end%s.ckptEvery == 0 {
		var snap *vm.Snapshot
		if snap, ok = s.ckpt.Lookup(k); ok {
			rec = ckpt.RecordOf(snap.Stats())
		}
	}
	if ok {
		s.ob.hit(n)
		s.executed = end
		s.ahead, s.rec = true, rec
		s.charge(hostcost.Fast, n)
	}
	return ok
}

// settle catches the machine up with a session that skipped ahead of
// it: it restores the nearest stride-boundary snapshot at or below the
// session's position that is ahead of the machine, then walks the rest
// in base intervals, depositing on the way. The walk is neither charged
// nor observed: the skips were charged, and obs counted their
// instructions as restored.
func (s *Session) settle() {
	if !s.ahead {
		return
	}
	s.ahead = false
	target := s.executed
	for s.executed = s.restoreBelow(target); s.executed < target && !s.stopped(); {
		ex := s.machine.Run(s.interval, nil)
		if ex == 0 {
			break
		}
		s.executed += ex
		s.maybeDeposit(hostcost.Fast)
	}
}

// restoreBelow restores the highest stride-boundary snapshot at or
// below target that is ahead of the machine and returns the machine's
// position. Boundaries are probed with Contains, which counts nothing,
// so only a held key reaches the counted Lookup. A snapshot that
// decoded cleanly but fails to restore is discarded from every tier,
// the machine stays where it was, and the next lower boundary is tried.
func (s *Session) restoreBelow(target uint64) uint64 {
	at := s.machine.Stats().Instructions
	for k := target - target%s.ckptEvery; k > at; k -= s.ckptEvery {
		if !s.ckpt.Contains(s.ckptKey(k)) {
			continue
		}
		snap, ok := s.ckpt.Lookup(s.ckptKey(k))
		if !ok {
			continue
		}
		start := s.ob.now()
		if err := s.machine.Restore(snap); err != nil {
			s.ckpt.Discard(s.ckptKey(k))
			continue
		}
		s.ob.restored(start)
		return k
	}
	return at
}

// halted reads the session's position. Records and snapshots are only
// deposited where the guest runs on, so a session ahead of its machine
// has not halted.
func (s *Session) halted() bool { return !s.ahead && s.machine.Halted() }

// FastForwardVia advances the session to the absolute instruction
// count target at full VM speed without charging host cost, resuming
// from the nearest stored checkpoint at or below target when one is
// ahead of the session. It models the paper's dispatch-to-checkpoint:
// SimPoint reaches each simulation point from stored state rather than
// by re-executing, paying only the fixed restore overhead (charged by
// the caller via Meter().ChargeRestore, store hit or not).
//
// Without an attached store this devolves to a single free run to
// target. After a restore the session is back on the canonical
// trajectory (checkpoints are only deposited there), so the remaining
// gap is walked in base-interval steps, depositing at stride
// boundaries along the way for later sessions. The walk is observed
// like any fast burst.
func (s *Session) FastForwardVia(target uint64) uint64 {
	if s.stopped() {
		return 0
	}
	target = min(target, s.total)
	start := s.executed
	s.ob.transition(s, hostcost.Fast)
	if s.ckpt != nil {
		if at := s.restoreBelow(target); at > s.executed {
			s.ob.hit(at - s.executed)
			s.executed, s.ahead, s.canonical = at, false, true
		}
	}
	s.settle()
	for s.executed < target && !s.halted() && !s.stopped() {
		n := target - s.executed
		if s.ckpt != nil && s.canonical && s.executed%s.interval == 0 && n > s.interval {
			n = s.interval
		}
		s.noteRun(n)
		if s.runObserved(hostcost.Fast, n, nil) == 0 {
			break
		}
		s.maybeDeposit(hostcost.Fast)
	}
	return s.executed - start
}
