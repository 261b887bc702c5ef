// Package isa defines the guest instruction set architecture executed by
// the functional simulator (internal/vm) and modelled by the timing
// simulator (internal/timing).
//
// The guest ISA is a 64-bit load/store RISC machine with 32 general
// registers (r0 is hardwired to zero, like MIPS). Instructions are encoded
// into single 64-bit words that live in guest memory, so code is ordinary
// data: the VM's translation cache must observe stores into code pages and
// invalidate translations, exactly as a dynamic binary translator for a
// real ISA would.
//
// The ISA is deliberately small — the paper's mechanisms are ISA-agnostic —
// but rich enough that the synthetic SPEC stand-ins can express the
// behaviours the evaluation depends on: dependent load chains, wide ALU
// parallelism, data-dependent branches, floating-point kernels, system
// calls, and self-modifying code.
package isa

import "fmt"

// Op identifies a guest instruction opcode.
type Op uint8

// Guest opcodes. The numeric values are part of the binary encoding and
// must not be reordered once programs are generated; append new opcodes at
// the end.
const (
	OpNop Op = iota
	OpHalt

	// Register-register integer ALU.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt  // rd = (rs1 < rs2) signed
	OpSltu // rd = (rs1 < rs2) unsigned

	// Register-immediate integer ALU.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpMovi  // rd = signext(imm32)
	OpMovhi // rd = rd | imm32<<32

	// Memory (8-byte aligned-or-not accesses; the VM tolerates unaligned).
	OpLd // rd = mem64[rs1+imm]
	OpSt // mem64[rs1+imm] = rs2

	// Control flow. Branch targets are PC-relative in bytes.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpJmp  // pc += imm
	OpJal  // rd = pc+8; pc += imm
	OpJalr // rd = pc+8; pc = rs1 + imm

	// Floating point: registers are reinterpreted as float64 bit patterns.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFcvtIF // rd = float64(int64(rs1)) bits
	OpFcvtFI // rd = int64(float64 bits of rs1)

	// System call: imm selects the service, arguments in r10..r13,
	// result in r10. Raises a guest exception (mode switch in a real VM).
	OpSys

	numOps
)

// NumOps reports the number of defined opcodes.
const NumOps = int(numOps)

// Register indices with ABI-style roles used by internal/asm. The
// hardware itself only distinguishes r0.
const (
	RegZero = 0  // always reads as zero; writes discarded
	RegSP   = 29 // conventional stack pointer (convention only)
	RegLR   = 30 // conventional link register
)

// NumRegs is the architectural general-register count.
const NumRegs = 32

// Class groups opcodes by the execution resource and event semantics the
// timing model cares about.
type Class uint8

const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional, direct
	ClassJump   // unconditional direct or indirect, incl. calls
	ClassFP
	ClassFDiv
	ClassSys
	ClassHalt

	numClasses
)

// NumClasses reports the number of defined instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassNop:    "nop",
	ClassALU:    "alu",
	ClassMul:    "mul",
	ClassDiv:    "div",
	ClassLoad:   "load",
	ClassStore:  "store",
	ClassBranch: "branch",
	ClassJump:   "jump",
	ClassFP:     "fp",
	ClassFDiv:   "fdiv",
	ClassSys:    "sys",
	ClassHalt:   "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

var opInfo = [numOps]struct {
	name   string
	class  Class
	hasRd  bool
	hasRs1 bool
	hasRs2 bool
	hasImm bool
}{
	OpNop:    {"nop", ClassNop, false, false, false, false},
	OpHalt:   {"halt", ClassHalt, false, false, false, false},
	OpAdd:    {"add", ClassALU, true, true, true, false},
	OpSub:    {"sub", ClassALU, true, true, true, false},
	OpMul:    {"mul", ClassMul, true, true, true, false},
	OpDiv:    {"div", ClassDiv, true, true, true, false},
	OpAnd:    {"and", ClassALU, true, true, true, false},
	OpOr:     {"or", ClassALU, true, true, true, false},
	OpXor:    {"xor", ClassALU, true, true, true, false},
	OpSll:    {"sll", ClassALU, true, true, true, false},
	OpSrl:    {"srl", ClassALU, true, true, true, false},
	OpSra:    {"sra", ClassALU, true, true, true, false},
	OpSlt:    {"slt", ClassALU, true, true, true, false},
	OpSltu:   {"sltu", ClassALU, true, true, true, false},
	OpAddi:   {"addi", ClassALU, true, true, false, true},
	OpAndi:   {"andi", ClassALU, true, true, false, true},
	OpOri:    {"ori", ClassALU, true, true, false, true},
	OpXori:   {"xori", ClassALU, true, true, false, true},
	OpSlli:   {"slli", ClassALU, true, true, false, true},
	OpSrli:   {"srli", ClassALU, true, true, false, true},
	OpSrai:   {"srai", ClassALU, true, true, false, true},
	OpSlti:   {"slti", ClassALU, true, true, false, true},
	OpMovi:   {"movi", ClassALU, true, false, false, true},
	OpMovhi:  {"movhi", ClassALU, true, false, false, true},
	OpLd:     {"ld", ClassLoad, true, true, false, true},
	OpSt:     {"st", ClassStore, false, true, true, true},
	OpBeq:    {"beq", ClassBranch, false, true, true, true},
	OpBne:    {"bne", ClassBranch, false, true, true, true},
	OpBlt:    {"blt", ClassBranch, false, true, true, true},
	OpBge:    {"bge", ClassBranch, false, true, true, true},
	OpJmp:    {"jmp", ClassJump, false, false, false, true},
	OpJal:    {"jal", ClassJump, true, false, false, true},
	OpJalr:   {"jalr", ClassJump, true, true, false, true},
	OpFadd:   {"fadd", ClassFP, true, true, true, false},
	OpFsub:   {"fsub", ClassFP, true, true, true, false},
	OpFmul:   {"fmul", ClassFP, true, true, true, false},
	OpFdiv:   {"fdiv", ClassFDiv, true, true, true, false},
	OpFcvtIF: {"fcvt.i.f", ClassFP, true, true, false, false},
	OpFcvtFI: {"fcvt.f.i", ClassFP, true, true, false, false},
	OpSys:    {"sys", ClassSys, false, false, false, true},
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opInfo) && opInfo[o].name != "" {
		return opInfo[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// ClassOf returns the instruction class for an opcode.
func (o Op) Class() Class {
	if o < numOps {
		return opInfo[o].class
	}
	return ClassNop
}

// HasDest reports whether the opcode writes a destination register.
func (o Op) HasDest() bool { return o < numOps && opInfo[o].hasRd }

// ReadsRs1 reports whether the opcode reads its first source register.
func (o Op) ReadsRs1() bool { return o < numOps && opInfo[o].hasRs1 }

// ReadsRs2 reports whether the opcode reads its second source register.
func (o Op) ReadsRs2() bool { return o < numOps && opInfo[o].hasRs2 }

// IsCtrl reports whether the opcode can redirect control flow.
func (o Op) IsCtrl() bool {
	c := o.Class()
	return c == ClassBranch || c == ClassJump || c == ClassHalt || c == ClassSys
}

// EndsBlock reports whether the opcode terminates a translation-cache
// basic block. All control transfers do, as does HALT and SYS (which a
// real DBT exits translated code to service).
func (o Op) EndsBlock() bool { return o.IsCtrl() }

// Inst is a decoded guest instruction. The VM's translation cache stores
// decoded Inst values so that the fetch/decode cost is paid once per
// translation, as in a real dynamic binary translator.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// WellFormed reports whether the instruction is executable: a defined
// opcode with all register fields in architectural range. Decode is
// total over arbitrary memory words, so decoded garbage can carry
// register indices 32..63; the VM refuses to execute those the same way
// it refuses undefined opcodes.
func (i Inst) WellFormed() bool {
	return i.Op.Valid() && i.Rd < NumRegs && i.Rs1 < NumRegs && i.Rs2 < NumRegs
}

// String renders the instruction in assembler syntax. It is total:
// instructions decoded from arbitrary words (including undefined
// opcodes) render as raw fields rather than panicking.
func (i Inst) String() string {
	if !i.Op.Valid() {
		return fmt.Sprintf("illegal(op=%d, rd=%d, rs1=%d, rs2=%d, imm=%d)",
			uint8(i.Op), i.Rd, i.Rs1, i.Rs2, i.Imm)
	}
	info := opInfo[i.Op]
	switch {
	case i.Op == OpNop || i.Op == OpHalt:
		return info.name
	case i.Op == OpSys:
		return fmt.Sprintf("sys %d", i.Imm)
	case i.Op == OpLd:
		return fmt.Sprintf("ld r%d, %d(r%d)", i.Rd, i.Imm, i.Rs1)
	case i.Op == OpSt:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Rs2, i.Imm, i.Rs1)
	case i.Op.Class() == ClassBranch:
		return fmt.Sprintf("%s r%d, r%d, %d", info.name, i.Rs1, i.Rs2, i.Imm)
	case i.Op == OpJmp:
		return fmt.Sprintf("jmp %d", i.Imm)
	case i.Op == OpJal:
		return fmt.Sprintf("jal r%d, %d", i.Rd, i.Imm)
	case i.Op == OpJalr:
		return fmt.Sprintf("jalr r%d, r%d, %d", i.Rd, i.Rs1, i.Imm)
	case info.hasRs2:
		return fmt.Sprintf("%s r%d, r%d, r%d", info.name, i.Rd, i.Rs1, i.Rs2)
	case info.hasRs1 && info.hasImm:
		return fmt.Sprintf("%s r%d, r%d, %d", info.name, i.Rd, i.Rs1, i.Imm)
	case info.hasRs1:
		return fmt.Sprintf("%s r%d, r%d", info.name, i.Rd, i.Rs1)
	case info.hasImm:
		return fmt.Sprintf("%s r%d, %d", info.name, i.Rd, i.Imm)
	default:
		return info.name
	}
}

// InstBytes is the size of one encoded instruction in guest memory.
const InstBytes = 8

// System call numbers serviced by the VM (see internal/device).
const (
	SysExit       = 1 // terminate the guest program
	SysConsoleOut = 2 // write r11 bytes at r10 to the console
	SysBlockRead  = 3 // read sector r10 into buffer r11 (r12 sectors)
	SysBlockWrite = 4 // write buffer r11 to sector r10 (r12 sectors)
	SysPhaseMark  = 5 // diagnostic phase marker port, value in r10
	SysTimeQuery  = 6 // r10 = simulated time base (fixed-IPC model)
)
