package core

// Checkpoint participation: how a Session deposits snapshots and
// trajectory records into a ckpt.Store and skips or resumes from them
// without perturbing either the simulation results or the modelled
// paper cost.
//
// The ground rule is that the machine's state at instruction N,
// statistics included, does not depend on how the run was divided into
// Run calls (a Run that stops inside a block leaves it for the next to
// continue). Dynamic Sampling monitors those statistics, so every
// session of one workload shares bit-identical machine state at every
// instruction count, and what one deposits there serves all.
//
// A session leaves a trajectory record (the three monitored
// statistics, 24 bytes) at every interval boundary a fast burst ends
// on, and a snapshot with a record beside it where it leaves fast mode
// for a burst of one base interval that starts on a boundary, which is
// where a later policy wants the machine; CkptStride adds a grid of
// both. Between fast intervals a policy reads only the statistics, so
// a fast interval whose end has a record is skipped: the session moves,
// the machine stays. A dispatch (FastForwardVia) moves the session the
// same way. The machine catches up only when something reads it
// (settle), from the highest snapshot below the session.
//
// Host-cost accounting stays checkpoint-blind: a skip charges the same
// hostcost.Fast units the skipped execution would have, and a dispatch
// and the catch-up walk charge nothing (callers still model the
// paper's fixed restore overhead via Meter().ChargeRestore).
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

// deposit leaves a trajectory record at an interval boundary and, with
// snap, a snapshot beside it. Contains is checked first so only the
// first session to reach a boundary pays for the capture; later
// sessions (whose state is bit-identical there) skip.
func (s *Session) deposit(snap bool) {
	if s.ckpt == nil || s.executed == 0 || s.executed%s.interval != 0 || s.halted() {
		return
	}
	k := s.ckptKey(s.executed)
	s.ckpt.PutRecord(k, s.interval, ckpt.RecordOf(s.machine.Stats()))
	if snap && !s.ckpt.Contains(k) {
		s.ckpt.Put(k, s.machine.Snapshot())
	}
}

// onGrid reports whether the session stands on the CkptStride grid.
func (s *Session) onGrid() bool { return s.ckptEvery != 0 && s.executed%s.ckptEvery == 0 }

// fastHit skips one aligned fast-mode base interval when the store
// holds the trajectory record at its end, which is what execution
// would produce there. It charges exactly what the skipped execution
// would have, so results and modelled cost are unchanged — only host
// wall-clock shrinks. The session moves ahead of its machine; Stat and
// Done answer from the record until settle catches the machine up.
func (s *Session) fastHit(n uint64) bool {
	if s.ckpt == nil || n != s.interval || s.executed%s.interval != 0 {
		return false
	}
	rec, ok := s.ckpt.LookupRecord(s.ckptKey(s.executed+n), s.interval)
	if ok {
		s.ob.hit(n)
		s.executed += n
		s.ahead, s.rec = true, rec
		s.charge(hostcost.Fast, n)
	}
	return ok
}

// settle catches the machine up with a session that skipped or
// dispatched ahead of it: it restores the highest snapshot at or below
// the session's position that is ahead of the machine, then walks the
// rest in base intervals, the last one clamped to the position,
// depositing on the way. The walk is not charged and not counted as
// executed (the skips were charged, and obs counted their instructions
// as restored); ckpt_catchup_instructions_total counts it.
func (s *Session) settle() {
	if !s.ahead {
		return
	}
	s.ahead = false
	target, from := s.executed, s.restoreBelow(s.executed)
	for s.executed = from; s.executed < target && !s.stopped(); {
		ex := s.machine.Run(min(s.interval, target-s.executed), nil)
		if ex == 0 {
			break
		}
		s.executed += ex
		s.deposit(s.onGrid())
	}
	s.ob.caughtUp(s.executed - from)
}

// restoreBelow restores the highest snapshot at or below target that
// is ahead of the machine and returns the machine's position. Finding
// none (or having no store) counts nothing in the store. A snapshot
// that decoded cleanly but fails to restore is discarded from every
// tier, the machine stays where it was, and the store is asked again.
func (s *Session) restoreBelow(target uint64) uint64 {
	at := s.machine.Stats().Instructions
	for s.ckpt != nil {
		snap, k, ok := s.ckpt.Below(s.ckptKey(target), at+1)
		if !ok {
			break
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
// count target (at most the budget) at full VM speed without charging
// host cost. It models the paper's dispatch-to-checkpoint: SimPoint
// reaches each simulation point from stored state rather than by
// re-executing, paying only the fixed restore overhead (charged by the
// caller via Meter().ChargeRestore, store hit or not).
//
// A dispatch is a skip with no record: the session moves to target and
// settle catches the machine up, leaving records (and grid snapshots)
// along its walk for later sessions. Obs counts the distance as
// restored, store hit or not, and the walk as a catch-up.
func (s *Session) FastForwardVia(target uint64) uint64 {
	if s.stopped() {
		return 0
	}
	start := s.executed
	s.ob.transition(s, hostcost.Fast)
	if target = min(target, s.total); target > s.executed {
		s.executed, s.ahead = target, true
	}
	s.settle()
	if s.executed > start {
		s.ob.hit(s.executed - start)
	}
	return s.executed - start
}
