package core

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hostcost"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// burstModes lists every way a policy can ask the session for a burst:
// the mode it is observed and charged under, whether it is charged at
// all, and whether a stored checkpoint may stand in for execution.
var burstModes = []struct {
	name    string
	mode    hostcost.Mode
	charged bool
	restore bool
	run     func(s *Session, n uint64) uint64
}{
	// A dispatch is a skip with no record: it resumes from the nearest
	// stored checkpoint, charges nothing either way, and obs counts its
	// distance as restored and its walk as a catch-up.
	{"FastForwardVia", hostcost.Fast, false, true, func(s *Session, n uint64) uint64 { return s.FastForwardVia(s.Executed() + n) }},
	{"RunFast", hostcost.Fast, true, true, func(s *Session, n uint64) uint64 { return s.RunFast(n) }},
	{"RunFuncWarm", hostcost.FuncWarm, true, false, func(s *Session, n uint64) uint64 { return s.RunFuncWarm(n) }},
	{"RunDetailWarm", hostcost.DetailWarm, true, false, func(s *Session, n uint64) uint64 { return s.RunDetailWarm(n) }},
	{"RunTimed", hostcost.Timing, true, false, func(s *Session, n uint64) uint64 {
		_, ex := s.RunTimed(n)
		return ex
	}},
	{"RunProfile", hostcost.BBVProfile, true, false, func(s *Session, n uint64) uint64 {
		return s.RunProfile(n, &vm.CountingSink{})
	}},
}

// TestBurstProtocolPerMode pins what one burst does in every mode, for
// one burst on the canonical interval grid and one off it: instructions
// executed, host-cost charge and mode-switch charge, the canonical flag,
// the checkpoint deposit, and the observed transition and per-mode (or,
// for the uncharged dispatch, restored) instruction count. A second session over the same store then checks
// which modes may satisfy the aligned burst by a restore, and a third
// runs the burst after a chain of three fast hits.
func TestBurstProtocolPerMode(t *testing.T) {
	spec, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range burstModes {
		for _, aligned := range []bool{true, false} {
			name := bm.name + "/unaligned"
			if aligned {
				name = bm.name + "/aligned"
			}
			t.Run(name, func(t *testing.T) {
				store := ckpt.NewMemory()
				newSession := func() (*Session, *obs.Registry, *obs.TransitionTrace) {
					reg, tr := obs.NewRegistry(), obs.NewTransitionTrace(8)
					return NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1, Obs: reg, Trace: tr}), reg, tr
				}
				s, reg, tr := newSession()
				n := s.IntervalLen()
				if !aligned {
					n = n/2 + 1
				}
				label := bm.mode.String()

				if ex := bm.run(s, n); ex != n || s.Executed() != n {
					t.Fatalf("ran %d, session at %d, want %d", ex, s.Executed(), n)
				}

				rep := s.Meter().Report(s.Scale())
				wantInstr, wantSwitches := uint64(0), uint64(0)
				if bm.charged {
					wantInstr = n
					if bm.mode != hostcost.Fast {
						wantSwitches = 1
					}
				}
				total := uint64(0)
				for _, instrs := range rep.Instrs {
					total += instrs
				}
				if rep.Instrs[bm.mode] != wantInstr || total != wantInstr {
					t.Errorf("charged %d instructions in %s (%d in total), want %d", rep.Instrs[bm.mode], label, total, wantInstr)
				}
				if rep.Switches != wantSwitches {
					t.Errorf("charged %d mode switches, want %d", rep.Switches, wantSwitches)
				}

				if s.canonical != aligned {
					t.Errorf("canonical = %v after a burst of %d at 0 (interval %d)", s.canonical, n, s.IntervalLen())
				}
				if got := store.Contains(s.ckptKey(n)); got != aligned {
					t.Errorf("checkpoint at %d deposited = %v, want %v", n, got, aligned)
				}
				if puts := store.Stats().Puts; (puts == 1) != aligned {
					t.Errorf("store saw %d puts, aligned = %v", puts, aligned)
				}

				trs := tr.Snapshot()
				if len(trs) != 1 || trs[0].From != "init" || trs[0].To != label || trs[0].Instr != 0 {
					t.Errorf("transitions = %+v, want one init→%s at 0", trs, label)
				}
				wantRun, wantRestored := n, uint64(0)
				if !bm.charged {
					wantRun, wantRestored = 0, n
				}
				if got := reg.Counter("vm_instructions_total", "mode", label).Value(); got != wantRun {
					t.Errorf("vm_instructions_total{mode=%s} = %d, want %d", label, got, wantRun)
				}
				if got := reg.Counter("ckpt_restored_instructions_total").Value(); got != wantRestored {
					t.Errorf("ckpt_restored_instructions_total = %d, want %d", got, wantRestored)
				}

				// The same burst again stays in the mode: no new transition,
				// and it starts off the grid unless the first one was aligned.
				bm.run(s, n)
				if tr.Total() != 1 {
					t.Errorf("a second burst in %s recorded %d transitions, want 1", label, tr.Total())
				}
				if s.canonical != aligned {
					t.Errorf("canonical = %v after the second burst", s.canonical)
				}

				if !aligned {
					return
				}
				// A fresh session over the primed store: only the fast
				// bursts may be satisfied by a restore, and the charged
				// one must charge exactly what execution would have.
				w, wreg, _ := newSession()
				if ex := bm.run(w, n); ex != n || w.Executed() != n {
					t.Fatalf("warm-store burst ran %d, session at %d, want %d", ex, w.Executed(), n)
				}
				restored := wreg.Counter("ckpt_restores_total").Value() == 1
				if restored != bm.restore {
					t.Errorf("satisfied by a restore = %v, want %v", restored, bm.restore)
				}
				if got := w.Meter().Report(w.Scale()); got != rep {
					t.Errorf("warm-store charge diverged:\n got %+v\nwant %+v", got, rep)
				}
				if w.Machine().Stats() != firstBurstStats(t, spec, bm.run, n) {
					t.Errorf("warm-store burst left different VM statistics")
				}

				// A chain of three fast hits, then the burst, against a
				// store-off session making the same calls: equal deltas
				// after every hit, equal machines and charges at the end.
				NewSession(spec, Options{Scale: 200_000, Ckpt: store, CkptStride: 1}).FastForwardVia(4 * n)
				c, creg, _ := newSession()
				cold := NewSession(spec, Options{Scale: 200_000})
				var prev, coldPrev, d, coldD vm.Stats
				var mid archState
				for i := 0; i < 3; i++ {
					c.RunFast(n)
					cold.RunFast(n)
					now, coldNow := c.Machine().Stats(), cold.Machine().Stats()
					d, coldD = now.Sub(prev), coldNow.Sub(coldPrev)
					prev, coldPrev = now, coldNow
					if d != coldD {
						t.Errorf("hit %d: statistics delta = %+v, cold run's %+v", i+1, d, coldD)
					}
					if i == 1 {
						mid = stateOf(cold.Machine())
					}
				}
				if ex := bm.run(c, n); ex != n || c.Executed() != 4*n {
					t.Fatalf("burst after the chain ran %d, session at %d, want %d", ex, c.Executed(), 4*n)
				}
				bm.run(cold, n)
				wantHits := uint64(3)
				if bm.restore {
					wantHits++
				}
				if got := creg.Counter("ckpt_restores_total").Value(); got != wantHits {
					t.Errorf("chain took %d hits, want %d", got, wantHits)
				}
				if got, want := stateOf(c.Machine()), stateOf(cold.Machine()); got != want {
					t.Errorf("machine after the chain:\n got %+v\nwant %+v", got, want)
				}
				if got, want := c.Meter().Report(c.Scale()), cold.Meter().Report(cold.Scale()); got != want {
					t.Errorf("chain charge diverged:\n got %+v\nwant %+v", got, want)
				}
				// Machine() in the middle of a chain hands out the state
				// the hits so far stand for.
				p, _, _ := newSession()
				p.RunFast(n)
				p.RunFast(n)
				if got := stateOf(p.Machine()); got != mid {
					t.Errorf("Machine() mid-chain:\n got %+v\nwant %+v", got, mid)
				}
			})
		}
	}
}

// archState is what the tests compare of two machines: statistics, PC,
// registers, and the memory and disk digests.
type archState struct {
	stats     vm.Stats
	pc        uint64
	regs      [isa.NumRegs]uint64
	mem, disk uint64
}

func stateOf(m *vm.Machine) archState {
	st := archState{stats: m.Stats(), pc: m.PC(), mem: m.Mem().Digest(), disk: m.Disk().Digest()}
	for r := range st.regs {
		st.regs[r] = m.Reg(r)
	}
	return st
}

// firstBurstStats returns the VM statistics after one burst of n on a
// store-less session.
func firstBurstStats(t *testing.T, spec workload.Spec, run func(*Session, uint64) uint64, n uint64) vm.Stats {
	t.Helper()
	s := NewSession(spec, Options{Scale: 200_000})
	run(s, n)
	return s.Machine().Stats()
}
