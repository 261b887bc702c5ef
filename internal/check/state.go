package check

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// diff returns the first field in which two live machines differ,
// rendered for a Divergence report, or ok=true when their complete
// state is identical: pc, registers, halt status, memory page by page,
// disk, console, phase log and every vm.Stats field.
func diff(a, b *vm.Machine) (field, av, bv string, ok bool) {
	if a.PC() != b.PC() {
		return "pc", fmt.Sprintf("%#x", a.PC()), fmt.Sprintf("%#x", b.PC()), false
	}
	for r := 0; r < isa.NumRegs; r++ {
		if a.Reg(r) != b.Reg(r) {
			return fmt.Sprintf("reg[r%d]", r),
				fmt.Sprintf("%#x", a.Reg(r)), fmt.Sprintf("%#x", b.Reg(r)), false
		}
	}
	switch {
	case a.Halted() != b.Halted():
		return "halted", fmt.Sprint(a.Halted()), fmt.Sprint(b.Halted()), false
	case a.ExitCode() != b.ExitCode():
		return "exitCode", fmt.Sprint(a.ExitCode()), fmt.Sprint(b.ExitCode()), false
	}
	if vpn, ok := memDiff(a.Mem(), b.Mem()); !ok {
		return fmt.Sprintf("memory page %#x", vpn),
			fmt.Sprintf("digest %#x", a.Mem().Digest()), fmt.Sprintf("digest %#x", b.Mem().Digest()), false
	}
	ca, cb := a.Console(), b.Console()
	switch da, db := a.Disk().Digest(), b.Disk().Digest(); {
	case da != db:
		return "disk digest", fmt.Sprintf("%#x", da), fmt.Sprintf("%#x", db), false
	case ca.BytesWritten != cb.BytesWritten || ca.Writes != cb.Writes || !bytes.Equal(ca.Tail(), cb.Tail()):
		return "console", fmt.Sprintf("%d bytes/%d writes", ca.BytesWritten, ca.Writes),
			fmt.Sprintf("%d bytes/%d writes", cb.BytesWritten, cb.Writes), false
	case !slices.Equal(a.PhaseLog(), b.PhaseLog()):
		return "phase log", fmt.Sprintf("%d marks", len(a.PhaseLog())), fmt.Sprintf("%d marks", len(b.PhaseLog())), false
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		f, av, bv := diffStats(sa, sb)
		return "stats." + f, av, bv, false
	}
	return "", "", "", true
}

// memDiff compares two memories of one span page by page over their
// page tables and returns the first page that is mapped in one and not
// the other or differs in content. Leaves and pages the two share are
// equal by identity.
func memDiff(a, b *mem.Memory) (vpn uint64, ok bool) {
	db := b.Raw()
	for d, la := range a.Raw() {
		lb := db[d]
		if la == lb {
			continue
		}
		for i, pa := range la.Pages {
			pb := lb.Pages[i]
			if pa != pb && (pa == nil || pb == nil || *pa != *pb) {
				return uint64(d)<<mem.LeafShift + uint64(i), false
			}
		}
	}
	return 0, true
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
