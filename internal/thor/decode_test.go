package thor

import (
	"fmt"
	"testing"
)

// referenceDecode is the map-based decoder that the opcode tables replaced,
// kept verbatim as the oracle Decode must agree with.
func referenceDecode(w Word) (Instr, error) {
	op := Op(w >> 24)
	if !validOps[op] {
		return Instr{}, fmt.Errorf("decode: illegal opcode %#02x", uint8(op))
	}
	in := Instr{Op: op, Rd: uint8((w >> 20) & 0xF)}
	if formatI(op) {
		imm := int32(w & 0xFFFFF)
		if imm&(1<<19) != 0 {
			imm -= 1 << 20
		}
		in.Imm = imm
		return in, nil
	}
	in.Rs = uint8((w >> 16) & 0xF)
	in.Rt = uint8((w >> 12) & 0xF)
	imm := int32(w & 0xFFF)
	if imm&(1<<11) != 0 {
		imm -= 1 << 12
	}
	in.Imm = imm
	return in, nil
}

// decodeCorpus returns, for every one of the 256 opcodes, words whose low 24
// operand bits are all zeros, all ones, either side of the imm12 and imm20
// sign bits, and seeded random patterns.
func decodeCorpus() []Word {
	operands := []Word{
		0x000000, 0xFFFFFF,
		0x0007FF, 0x000800, 0xFFF7FF, 0xFFF800, // imm12 = max, min
		0x07FFFF, 0x080000, 0xF7FFFF, 0xF80000, // imm20 = max, min
	}
	rng := newTestRand(15)
	for i := 0; i < 8; i++ {
		operands = append(operands, Word(rng.Uint32())&0xFFFFFF)
	}
	words := make([]Word, 0, 256*len(operands))
	for op := 0; op < 256; op++ {
		for _, o := range operands {
			words = append(words, Word(op)<<24|o)
		}
	}
	return words
}

// checkDecode asserts that Decode agrees with referenceDecode on w and that
// every valid word re-encodes to itself: both formats use all 32 bits.
func checkDecode(t *testing.T, w Word) {
	t.Helper()
	got, err := Decode(w)
	want, wantErr := referenceDecode(w)
	if (err != nil) != (wantErr != nil) || got != want {
		t.Fatalf("Decode(%#08x) = %+v, %v; reference %+v, %v", w, got, err, want, wantErr)
	}
	if err != nil {
		return
	}
	back, err := Encode(got)
	if err != nil || back != w {
		t.Fatalf("Encode(Decode(%#08x)) = %#08x, %v", w, back, err)
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	valid := 0
	for _, w := range decodeCorpus() {
		checkDecode(t, w)
		if validOps[Op(w>>24)] {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("corpus holds no valid instruction")
	}
}

func FuzzDecode(f *testing.F) {
	for _, w := range decodeCorpus() {
		f.Add(uint32(w))
	}
	f.Fuzz(func(t *testing.T, w uint32) { checkDecode(t, w) })
}

// TestAddressWrapDetected drives accesses at the top of the 32-bit address
// space, where addr+4 wraps to 0: each must raise an EDM, not panic.
func TestAddressWrapDetected(t *testing.T) {
	cases := []struct {
		name string
		prog []Instr
		edm  string
	}{
		{"LD at -4", []Instr{{Op: OpLDI, Rd: 1, Imm: -4}, {Op: OpLD, Rd: 2, Rs: 1}}, EDMAccess},
		{"ST at -4", []Instr{{Op: OpLDI, Rd: 1, Imm: -4}, {Op: OpST, Rd: 2, Rs: 1}}, EDMAccess},
		{"LDB at -1", []Instr{{Op: OpLDI, Rd: 1, Imm: -1}, {Op: OpLDB, Rd: 2, Rs: 1}}, EDMAccess},
		{"STB at -1", []Instr{{Op: OpLDI, Rd: 1, Imm: -1}, {Op: OpSTB, Rd: 2, Rs: 1}}, EDMAccess},
		{"JR to -4", []Instr{{Op: OpLDI, Rd: 1, Imm: -4}, {Op: OpJR, Rd: 1}}, EDMControlFlow},
		{"POP with SP -4", []Instr{{Op: OpLDI, Rd: RegSP, Imm: -4}, {Op: OpPOP, Rd: 2}}, EDMAccess},
		{"PUSH with SP 0", []Instr{{Op: OpLDI, Rd: RegSP, Imm: 0}, {Op: OpPUSH, Rd: 2}}, EDMAccess},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCPU(t)
			load(t, c, append(tc.prog, Instr{Op: OpHALT})...)
			var st Status
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("simulator panicked: %v", r)
					}
				}()
				st = c.Run(10)
			}()
			if st != StatusDetected {
				t.Fatalf("status = %v, want detected", st)
			}
			if d := c.Detection(); d == nil || d.Mechanism != tc.edm {
				t.Fatalf("detection = %+v, want %s", d, tc.edm)
			}
		})
	}

	c := mustCPU(t)
	if _, err := c.ReadWordHost(0xFFFFFFFC); err == nil {
		t.Error("host read at 0xFFFFFFFC should fail")
	}
	if err := c.WriteWordHost(0xFFFFFFFC, 1); err == nil {
		t.Error("host write at 0xFFFFFFFC should fail")
	}
}
