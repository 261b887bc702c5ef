package vm

import (
	"testing"

	"repro/internal/isa"
)

// refXclassOf is the switch xclassOf was before it became the xkinds
// table, kept on the test side as the table's oracle (the deepSnapshot /
// refKMeans pattern: no second production path).
func refXclassOf(op isa.Op, rd uint8) uint8 {
	z := rd == isa.RegZero
	switch op {
	case isa.OpNop:
		return xNop
	case isa.OpHalt:
		return xHalt
	case isa.OpAdd:
		if z {
			return xNop
		}
		return xAdd
	case isa.OpSub:
		if z {
			return xNop
		}
		return xSub
	case isa.OpMul:
		if z {
			return xNop
		}
		return xMul
	case isa.OpDiv:
		if z {
			return xDivZ
		}
		return xDiv
	case isa.OpAnd:
		if z {
			return xNop
		}
		return xAnd
	case isa.OpOr:
		if z {
			return xNop
		}
		return xOr
	case isa.OpXor:
		if z {
			return xNop
		}
		return xXor
	case isa.OpSll:
		if z {
			return xNop
		}
		return xSll
	case isa.OpSrl:
		if z {
			return xNop
		}
		return xSrl
	case isa.OpSra:
		if z {
			return xNop
		}
		return xSra
	case isa.OpSlt:
		if z {
			return xNop
		}
		return xSlt
	case isa.OpSltu:
		if z {
			return xNop
		}
		return xSltu
	case isa.OpAddi:
		if z {
			return xNop
		}
		return xAddi
	case isa.OpAndi:
		if z {
			return xNop
		}
		return xAndi
	case isa.OpOri:
		if z {
			return xNop
		}
		return xOri
	case isa.OpXori:
		if z {
			return xNop
		}
		return xXori
	case isa.OpSlli:
		if z {
			return xNop
		}
		return xSlli
	case isa.OpSrli:
		if z {
			return xNop
		}
		return xSrli
	case isa.OpSrai:
		if z {
			return xNop
		}
		return xSrai
	case isa.OpSlti:
		if z {
			return xNop
		}
		return xSlti
	case isa.OpMovi:
		if z {
			return xNop
		}
		return xMovi
	case isa.OpMovhi:
		if z {
			return xNop
		}
		return xMovhi
	case isa.OpLd:
		if z {
			return xLdZ
		}
		return xLd
	case isa.OpSt:
		return xSt
	case isa.OpBeq:
		return xBeq
	case isa.OpBne:
		return xBne
	case isa.OpBlt:
		return xBlt
	case isa.OpBge:
		return xBge
	case isa.OpJmp:
		return xJmp
	case isa.OpJal:
		if z {
			return xJmp
		}
		return xJal
	case isa.OpJalr:
		if z {
			return xJalrZ
		}
		return xJalr
	case isa.OpFadd:
		if z {
			return xNop
		}
		return xFadd
	case isa.OpFsub:
		if z {
			return xNop
		}
		return xFsub
	case isa.OpFmul:
		if z {
			return xNop
		}
		return xFmul
	case isa.OpFdiv:
		if z {
			return xNop
		}
		return xFdiv
	case isa.OpFcvtIF:
		if z {
			return xNop
		}
		return xFcvtIF
	case isa.OpFcvtFI:
		if z {
			return xNop
		}
		return xFcvtFI
	case isa.OpSys:
		return xSys
	default:
		return xBad
	}
}

// TestXclassTable holds the opcode table to the switch it replaced: every
// opcode byte, defined or not, with a destination of r0, r1 and r31.
func TestXclassTable(t *testing.T) {
	for op := 0; op < 256; op++ {
		for _, rd := range []uint8{0, 1, 31} {
			if got, want := xclassOf(isa.Op(op), rd), refXclassOf(isa.Op(op), rd); got != want {
				t.Errorf("xclassOf(%v, r%d) = kind %d, the switch says %d", isa.Op(op), rd, got, want)
			}
		}
	}
}
