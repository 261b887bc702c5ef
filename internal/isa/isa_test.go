package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{
			Op:  Op(op % uint8(NumOps)),
			Rd:  rd % NumRegs,
			Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs,
			Imm: imm,
		}
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	w := Encode(Inst{Op: Op(250)})
	if Decode(w).Op.Valid() {
		t.Fatal("opcode 250 should be invalid")
	}
}

func TestOpProperties(t *testing.T) {
	cases := []struct {
		op                  Op
		class               Class
		dest, rs1, rs2, imm bool
	}{
		{OpNop, ClassNop, false, false, false, false},
		{OpHalt, ClassHalt, false, false, false, false},
		{OpAdd, ClassALU, true, true, true, false},
		{OpMul, ClassMul, true, true, true, false},
		{OpDiv, ClassDiv, true, true, true, false},
		{OpAddi, ClassALU, true, true, false, true},
		{OpMovi, ClassALU, true, false, false, true},
		{OpLd, ClassLoad, true, true, false, true},
		{OpSt, ClassStore, false, true, true, true},
		{OpBeq, ClassBranch, false, true, true, true},
		{OpJmp, ClassJump, false, false, false, true},
		{OpJal, ClassJump, true, false, false, true},
		{OpJalr, ClassJump, true, true, false, true},
		{OpFadd, ClassFP, true, true, true, false},
		{OpFdiv, ClassFDiv, true, true, true, false},
		{OpSys, ClassSys, false, false, false, true},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.class {
			t.Errorf("%v class = %v, want %v", c.op, got, c.class)
		}
		if got := c.op.HasDest(); got != c.dest {
			t.Errorf("%v HasDest = %v, want %v", c.op, got, c.dest)
		}
		if got := c.op.ReadsRs1(); got != c.rs1 {
			t.Errorf("%v ReadsRs1 = %v, want %v", c.op, got, c.rs1)
		}
		if got := c.op.ReadsRs2(); got != c.rs2 {
			t.Errorf("%v ReadsRs2 = %v, want %v", c.op, got, c.rs2)
		}
		if got := opInfo[c.op].hasImm; got != c.imm {
			t.Errorf("%v hasImm = %v, want %v", c.op, got, c.imm)
		}
	}
}

func TestCtrlAndMemClassification(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		cls := op.Class()
		wantCtrl := cls == ClassBranch || cls == ClassJump || cls == ClassHalt || cls == ClassSys
		if op.IsCtrl() != wantCtrl {
			t.Errorf("%v IsCtrl = %v", op, op.IsCtrl())
		}
		if op.EndsBlock() != wantCtrl {
			t.Errorf("%v EndsBlock = %v", op, op.EndsBlock())
		}
	}
}

func TestEveryOpHasNameAndClass(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if !op.Valid() {
			t.Errorf("opcode %d should be valid", op)
		}
	}
	if Op(NumOps).Valid() {
		t.Error("NumOps must be invalid")
	}
}

func TestInstString(t *testing.T) {
	cases := map[string]Inst{
		"add r1, r2, r3":  {Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, -5": {Op: OpAddi, Rd: 1, Rs1: 2, Imm: -5},
		"ld r4, 16(r5)":   {Op: OpLd, Rd: 4, Rs1: 5, Imm: 16},
		"st r6, -8(r7)":   {Op: OpSt, Rs1: 7, Rs2: 6, Imm: -8},
		"beq r1, r2, 64":  {Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 64},
		"jmp -16":         {Op: OpJmp, Imm: -16},
		"sys 3":           {Op: OpSys, Imm: 3},
		"nop":             {Op: OpNop},
		"halt":            {Op: OpHalt},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestMustValidPanics(t *testing.T) {
	cases := []Inst{
		{Op: Op(200)},
		{Op: OpAdd, Rd: 40},
		{Op: OpBeq, Imm: 3}, // misaligned branch offset
	}
	for _, in := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustValid(%+v) did not panic", in)
				}
			}()
			MustValid(in)
		}()
	}
	MustValid(Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}) // must not panic
}

func TestClassString(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		if strings.HasPrefix(c.String(), "class(") {
			t.Errorf("class %d has no name", c)
		}
	}
}
