package vm

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/isa"
)

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }

// Syscall argument registers (software convention).
const (
	sysA0 = 10
	sysA1 = 11
	sysA2 = 12
)

// syscall services a guest SYS instruction. Every syscall is a guest
// exception (mode switch out of translated code in a real VM) and so
// contributes to the EXC metric. Only the device-transfer syscalls
// contribute to the I/O metric.
func (m *Machine) syscall(num int32) {
	m.stats.Syscalls++
	m.stats.Exceptions++
	switch num {
	case isa.SysExit:
		m.exitCode = m.regs[sysA0]
		m.halted = true

	case isa.SysConsoleOut:
		addr := m.regs[sysA0] &^ 7
		n := m.regs[sysA1]
		if n > 1<<20 {
			panic(fmt.Sprintf("vm: console write too large: %d bytes", n))
		}
		buf := make([]byte, 0, n)
		for off := uint64(0); off < n; off += 8 {
			w, faulted := m.mem.Read64(addr + off)
			if faulted {
				m.stats.PageFaults++
				m.stats.Exceptions++
			}
			for b := 0; b < 8 && off+uint64(b) < n; b++ {
				buf = append(buf, byte(w>>(8*b)))
			}
		}
		m.console.Write(buf)
		m.stats.IOOps++
		m.stats.IOBytes += n
		m.stats.ConsoleBytes += n

	case isa.SysBlockRead:
		sector := m.regs[sysA0]
		addr := m.regs[sysA1] &^ 7
		count := m.regs[sysA2]
		if count == 0 {
			count = 1
		}
		if count > 1<<12 {
			panic(fmt.Sprintf("vm: block read too large: %d sectors", count))
		}
		for s := uint64(0); s < count; s++ {
			m.disk.ReadSector(sector+s, &m.secBuf)
			base := addr + s*device.SectorBytes
			for i, w := range m.secBuf {
				if m.mem.Write64(base+uint64(i)*8, w) {
					m.stats.PageFaults++
					m.stats.Exceptions++
				}
			}
		}
		m.stats.IOOps++
		m.stats.IOBytes += count * device.SectorBytes
		m.stats.DiskReads += count

	case isa.SysBlockWrite:
		sector := m.regs[sysA0]
		addr := m.regs[sysA1] &^ 7
		count := m.regs[sysA2]
		if count == 0 {
			count = 1
		}
		if count > 1<<12 {
			panic(fmt.Sprintf("vm: block write too large: %d sectors", count))
		}
		for s := uint64(0); s < count; s++ {
			base := addr + s*device.SectorBytes
			for i := range m.secBuf {
				w, faulted := m.mem.Read64(base + uint64(i)*8)
				if faulted {
					m.stats.PageFaults++
					m.stats.Exceptions++
				}
				m.secBuf[i] = w
			}
			m.disk.WriteSector(sector+s, &m.secBuf)
		}
		m.stats.IOOps++
		m.stats.IOBytes += count * device.SectorBytes
		m.stats.DiskWrites += count

	case isa.SysPhaseMark:
		if len(m.phaseLog) < maxPhaseLog {
			m.phaseLog = append(m.phaseLog, PhaseMark{
				Instr: m.stats.Instructions,
				Value: m.regs[sysA0],
			})
		}

	case isa.SysTimeQuery:
		// The guest's time base is a fixed-IPC model: retired
		// instructions, in every mode. Modelled cycles never feed back
		// into the guest (the paper disables timing feedback for its
		// SPEC runs), so a sampled run executes the same instructions
		// as a full-timing one.
		m.regs[sysA0] = m.stats.Instructions

	default:
		panic(fmt.Sprintf("vm: unknown syscall %d at pc=%#x", num, m.pc))
	}
}
