package check

import (
	"fmt"
	"hash/fnv"
	"reflect"

	"repro/internal/isa"
	"repro/internal/mix"
	"repro/internal/vm"
)

// machineState is the comparable architectural state of a machine at a
// sync point, plus (optionally) the full statistics record.
type machineState struct {
	PC       uint64
	Regs     [isa.NumRegs]uint64
	Halted   bool
	ExitCode uint64

	MemDigest  uint64
	DiskDigest uint64

	ConsoleBytes  uint64
	ConsoleWrites uint64
	ConsoleTail   string

	PhaseLen    int
	PhaseDigest uint64

	Stats vm.Stats
}

// capture snapshots the comparable state of m. When hostStats is false
// the partition-sensitive host bookkeeping counters (translation cache,
// software TLB) are normalised out of the statistics: the VM documents
// that those may legitimately differ across Run partitionings and
// snapshot restores, while everything else must not.
func capture(m *vm.Machine, hostStats bool) machineState {
	st := machineState{
		PC:            m.PC(),
		Halted:        m.Halted(),
		ExitCode:      m.ExitCode(),
		MemDigest:     m.Mem().Digest(),
		DiskDigest:    m.Disk().Digest(),
		ConsoleBytes:  m.Console().BytesWritten,
		ConsoleWrites: m.Console().Writes,
		ConsoleTail:   string(m.Console().Tail()),
		Stats:         m.Stats(),
	}
	for r := 0; r < isa.NumRegs; r++ {
		st.Regs[r] = m.Reg(r)
	}
	log := m.PhaseLog()
	st.PhaseLen = len(log)
	h := fnv.New64a()
	w := mix.NewWriter(h)
	for _, pm := range log {
		w.Words(pm.Instr, pm.Value)
	}
	st.PhaseDigest = h.Sum64()
	if !hostStats {
		st.Stats = archStats(st.Stats)
	}
	return st
}

// archStats strips the host-side bookkeeping counters whose values
// depend on how a run was partitioned into Run calls or on snapshot
// restores: translation-cache activity and software-TLB refills (and
// the TLB-refill component of the aggregate exception count).
func archStats(s vm.Stats) vm.Stats {
	s.Exceptions = s.PageFaults + s.Syscalls
	s.TLBRefills = 0
	s.TCInvalidations = 0
	s.TCTranslations = 0
	s.TCFlushes = 0
	return s
}

// diff returns the first differing field between two states, rendered
// for a Divergence report, or ok=true when the states are identical.
func (a machineState) diff(b machineState) (field, av, bv string, ok bool) {
	if a == b {
		return "", "", "", true
	}
	if a.PC != b.PC {
		return "pc", fmt.Sprintf("%#x", a.PC), fmt.Sprintf("%#x", b.PC), false
	}
	for r := 0; r < isa.NumRegs; r++ {
		if a.Regs[r] != b.Regs[r] {
			return fmt.Sprintf("reg[r%d]", r),
				fmt.Sprintf("%#x", a.Regs[r]), fmt.Sprintf("%#x", b.Regs[r]), false
		}
	}
	switch {
	case a.Halted != b.Halted:
		return "halted", fmt.Sprint(a.Halted), fmt.Sprint(b.Halted), false
	case a.ExitCode != b.ExitCode:
		return "exitCode", fmt.Sprint(a.ExitCode), fmt.Sprint(b.ExitCode), false
	case a.MemDigest != b.MemDigest:
		return "memory digest", fmt.Sprintf("%#x", a.MemDigest), fmt.Sprintf("%#x", b.MemDigest), false
	case a.DiskDigest != b.DiskDigest:
		return "disk digest", fmt.Sprintf("%#x", a.DiskDigest), fmt.Sprintf("%#x", b.DiskDigest), false
	case a.ConsoleBytes != b.ConsoleBytes || a.ConsoleWrites != b.ConsoleWrites || a.ConsoleTail != b.ConsoleTail:
		return "console", fmt.Sprintf("%d bytes/%d writes", a.ConsoleBytes, a.ConsoleWrites),
			fmt.Sprintf("%d bytes/%d writes", b.ConsoleBytes, b.ConsoleWrites), false
	case a.PhaseLen != b.PhaseLen || a.PhaseDigest != b.PhaseDigest:
		return "phase log", fmt.Sprintf("%d marks (%#x)", a.PhaseLen, a.PhaseDigest),
			fmt.Sprintf("%d marks (%#x)", b.PhaseLen, b.PhaseDigest), false
	}
	// Statistics: name the first differing counter.
	if f, av, bv := diffStats(a.Stats, b.Stats); f != "" {
		return "stats." + f, av, bv, false
	}
	return "state", "?", "?", false
}

// diffStats returns the first differing Stats field by name.
func diffStats(a, b vm.Stats) (field, av, bv string) {
	ra, rb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := ra.Type()
	for i := 0; i < t.NumField(); i++ {
		if ra.Field(i).Uint() != rb.Field(i).Uint() {
			return t.Field(i).Name,
				fmt.Sprint(ra.Field(i).Uint()), fmt.Sprint(rb.Field(i).Uint())
		}
	}
	return "", "", ""
}
