package vm

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// straightProgram builds a straight 24-instruction ALU body ending in a
// halt: one block whose every interior pc a Run can stop at.
func straightProgram() *asm.Image {
	b := asm.NewBuilder(0x1000)
	for i := 0; i < 24; i++ {
		b.I(isa.OpAddi, 2, 2, 1)
	}
	b.Halt()
	img := &asm.Image{Entry: 0x1000}
	img.AddSegment(0x1000, b.Words())
	return img
}

// TestMidBlockResume budgets a block out in its middle: the machine
// keeps the block, the next Run continues it with no lookup and no
// translation, and the split run ends exactly where an uninterrupted
// one does, statistics included.
func TestMidBlockResume(t *testing.T) {
	m := New(Config{MemSpan: 64 << 20})
	m.Load(straightProgram())
	m.Run(2, nil)
	if m.resume == nil || m.resume.pc != 0x1000 || m.pc != 0x1000+2*isa.InstBytes {
		t.Fatalf("after 2 instructions: pc %#x, kept block %v; want pc 0x1010 in the block at 0x1000", m.pc, m.resume)
	}
	lookups, translations := m.lookups, m.stats.TCTranslations
	m.Run(1, nil)
	if m.lookups != lookups || m.stats.TCTranslations != translations {
		t.Errorf("continuing the kept block made %d lookups and %d translations, want none",
			m.lookups-lookups, m.stats.TCTranslations-translations)
	}
	m.RunToCompletion(0, nil)

	ref := New(Config{MemSpan: 64 << 20})
	ref.Load(straightProgram())
	ref.RunToCompletion(0, nil)
	if m.Reg(2) != ref.Reg(2) || m.Stats() != ref.Stats() {
		t.Fatalf("resumed run diverged: r2 %d, stats %+v\nuninterrupted: r2 %d, stats %+v",
			m.Reg(2), m.Stats(), ref.Reg(2), ref.Stats())
	}
}

// TestStatsIndependentOfPartition runs every suite benchmark to its
// budget in one Run, in 10-interval Runs and in base-interval Runs: the
// three Stats must be equal field for field, translation-cache and TLB
// counters included. It then stops each benchmark inside a block,
// snapshots, and restores into a fresh machine, once in memory and once
// through the wire format: the resumed run must end with the
// uninterrupted run's Stats.
func TestStatsIndependentOfPartition(t *testing.T) {
	const scale = 20_000
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		total := spec.ScaledInstr(scale)
		img, _ := workload.BuildScaled(spec, scale)
		L := workload.DefaultIntervalLen(total)
		run := func(step uint64) *Machine {
			m := New(Config{})
			m.Load(img)
			for left := total; left > 0 && !m.Halted(); {
				left -= m.Run(min(step, left), nil)
			}
			return m
		}
		want := run(total).Stats()
		for _, step := range []uint64{10 * L, L} {
			if got := run(step).Stats(); got != want {
				t.Errorf("%s in Runs of %d: %+v\none Run: %+v", name, step, got, want)
			}
		}

		// Stop inside a block: the first stop past mid-budget where the
		// machine keeps a block it has run part of.
		m := New(Config{})
		m.Load(img)
		at := m.Run(total/2, nil)
		for m.resume == nil || m.pc == m.resume.pc {
			at += m.Run(1, nil)
		}
		snap := m.Snapshot()
		var wire bytes.Buffer
		if _, err := snap.WriteTo(&wire); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSnapshot(&wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			how  string
			snap *Snapshot
		}{{"in memory", snap}, {"through the wire format", decoded}} {
			fresh := New(Config{})
			if err := fresh.Restore(tc.snap); err != nil {
				t.Fatalf("%s: restore %s: %v", name, tc.how, err)
			}
			fresh.Run(total-at, nil)
			if got := fresh.Stats(); got != want {
				t.Errorf("%s restored %s at %d (pc %#x): %+v\nuninterrupted: %+v", name, tc.how, at, snap.pc, got, want)
			}
		}
	}
}
