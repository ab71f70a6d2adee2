package thor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpNOP},
		{Op: OpHALT},
		{Op: OpMOV, Rd: 1, Rs: 2},
		{Op: OpLDI, Rd: 15, Imm: -1},
		{Op: OpLDI, Rd: 0, Imm: imm20Max},
		{Op: OpLDI, Rd: 0, Imm: imm20Min},
		{Op: OpLUI, Rd: 3, Imm: 0xFF},
		{Op: OpADD, Rd: 1, Rs: 2, Rt: 3},
		{Op: OpADDI, Rd: 1, Rs: 2, Imm: imm12Max},
		{Op: OpSUBI, Rd: 1, Rs: 2, Imm: imm12Min},
		{Op: OpCMP, Rd: 4, Rs: 5},
		{Op: OpCMPI, Rd: 4, Imm: -7},
		{Op: OpLD, Rd: 2, Rs: 13, Imm: -4},
		{Op: OpST, Rd: 2, Rs: 13, Imm: 8},
		{Op: OpBEQ, Imm: -100},
		{Op: OpJAL, Imm: 4000},
		{Op: OpJR, Rd: 14},
		{Op: OpPUSH, Rd: 7},
		{Op: OpTRAP, Imm: 42},
		{Op: OpIOW, Rd: 3, Imm: 5},
		{Op: OpSYNC},
		{Op: OpYIELD},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if got != in {
			t.Fatalf("round trip %+v -> %#x -> %+v", in, w, got)
		}
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	bad := []Instr{
		{Op: Op(0xEE)},
		{Op: OpADD, Rd: 16},
		{Op: OpADD, Rs: 255},
		{Op: OpLDI, Imm: imm20Max + 1},
		{Op: OpLDI, Imm: imm20Min - 1},
		{Op: OpADDI, Imm: imm12Max + 1},
		{Op: OpADDI, Imm: imm12Min - 1},
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("encode %+v should fail", in)
		}
	}
}

func TestDecodeIllegalOpcode(t *testing.T) {
	if _, err := Decode(0xEE000000); err == nil {
		t.Fatal("decode of illegal opcode should fail")
	}
}

// Property: every encodable instruction round-trips.
func TestEncodeDecodeProperty(t *testing.T) {
	ops := make([]Op, 0, len(validOps))
	for op := range validOps {
		ops = append(ops, op)
	}
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		op := ops[rng.Intn(len(ops))]
		in := Instr{Op: op, Rd: uint8(rng.Intn(NumRegs))}
		if formatI(op) {
			in.Imm = int32(rng.Intn(imm20Max-imm20Min+1) + imm20Min)
		} else {
			in.Rs = uint8(rng.Intn(NumRegs))
			in.Rt = uint8(rng.Intn(NumRegs))
			in.Imm = int32(rng.Intn(imm12Max-imm12Min+1) + imm12Min)
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if OpADD.String() != "ADD" {
		t.Fatalf("OpADD = %q", OpADD.String())
	}
	if Op(0xEE).String() != "OP(0xee)" {
		t.Fatalf("unknown op = %q", Op(0xEE).String())
	}
}

func TestInstrString(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNOP}, "NOP"},
		{Instr{Op: OpLDI, Rd: 1, Imm: -5}, "LDI R1, -5"},
		{Instr{Op: OpADD, Rd: 1, Rs: 2, Rt: 3}, "ADD R1, R2, R3"},
		{Instr{Op: OpLD, Rd: 2, Rs: 13, Imm: 4}, "LD R2, [R13+4]"},
		{Instr{Op: OpBRA, Imm: -2}, "BRA -2"},
		{Instr{Op: OpTRAP, Imm: 9}, "TRAP 9"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String(%+v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestMnemonicsComplete(t *testing.T) {
	m := Mnemonics()
	if len(m) != len(validOps) {
		t.Fatalf("mnemonic table has %d entries, validOps %d", len(m), len(validOps))
	}
	for name, op := range m {
		if !validOps[op] {
			t.Errorf("mnemonic %s maps to invalid op %v", name, op)
		}
	}
}
