// Package thor implements the target microprocessor of the reproduction: a
// cycle-counted 32-bit processor modelled on the role the Thor RD plays in
// the GOOFI paper (DSN 2001, §1, §3).
//
// Like the Thor RD, the simulated processor features parity-protected
// instruction and data caches, a set of hardware error detection mechanisms
// (EDMs), and full observability/controllability of its internal state
// elements through scan chains (see internal/scan). The real Thor RD is a
// proprietary rad-hard part; this simulator substitutes a synthetic ISA that
// exercises the same fault-injection surface: registers, program status word,
// pipeline latches, cache arrays and boundary pins.
package thor

import "fmt"

// Word is the processor's natural data unit.
type Word = uint32

// Register file layout. R13 serves as the stack pointer and R14 as the link
// register by software convention; the hardware enforces nothing about them
// except the stack-limit EDM on PUSH/POP.
const (
	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
	// RegSP is the stack-pointer register index.
	RegSP = 13
	// RegLR is the link-register index used by JAL/JR.
	RegLR = 14
)

// Op is an instruction opcode.
type Op uint8

// Instruction set. Two encodings exist: format R packs rd/rs/rt plus a
// signed 12-bit immediate; format I packs rd plus a signed 20-bit immediate.
const (
	OpNOP  Op = 0x00 // no operation
	OpHALT Op = 0x01 // stop execution, workload completed
	OpMOV  Op = 0x02 // rd = rs
	OpLDI  Op = 0x03 // rd = signext(imm20)            [format I]
	OpLUI  Op = 0x04 // rd = imm20 << 12               [format I]

	OpADD  Op = 0x10 // rd = rs + rt (flags)
	OpSUB  Op = 0x11 // rd = rs - rt (flags)
	OpMUL  Op = 0x12 // rd = rs * rt (flags Z,N)
	OpDIV  Op = 0x13 // rd = rs / rt; rt==0 raises the div-zero EDM
	OpAND  Op = 0x14 // rd = rs & rt
	OpOR   Op = 0x15 // rd = rs | rt
	OpXOR  Op = 0x16 // rd = rs ^ rt
	OpSHL  Op = 0x17 // rd = rs << (rt & 31)
	OpSHR  Op = 0x18 // rd = rs >> (rt & 31) logical
	OpSAR  Op = 0x19 // rd = rs >> (rt & 31) arithmetic
	OpADDI Op = 0x1A // rd = rs + imm12 (flags)
	OpSUBI Op = 0x1B // rd = rs - imm12 (flags)
	OpCMP  Op = 0x1C // flags on rd - rs
	OpCMPI Op = 0x1D // flags on rd - imm12

	OpLD  Op = 0x20 // rd = mem32[rs + imm12]
	OpST  Op = 0x21 // mem32[rs + imm12] = rd
	OpLDB Op = 0x22 // rd = mem8[rs + imm12]
	OpSTB Op = 0x23 // mem8[rs + imm12] = rd & 0xFF

	OpBEQ Op = 0x30 // branch if Z                      [format I]
	OpBNE Op = 0x31 // branch if !Z                     [format I]
	OpBLT Op = 0x32 // branch if N != V (signed <)      [format I]
	OpBGE Op = 0x33 // branch if N == V                 [format I]
	OpBGT Op = 0x34 // branch if !Z && N == V           [format I]
	OpBLE Op = 0x35 // branch if Z || N != V            [format I]
	OpBRA Op = 0x36 // unconditional branch             [format I]
	OpJAL Op = 0x37 // LR = PC + 4; branch (subprogram call) [format I]
	OpJR  Op = 0x38 // PC = rd (subprogram return)

	OpPUSH Op = 0x40 // SP -= 4; mem32[SP] = rd (stack-limit EDM)
	OpPOP  Op = 0x41 // rd = mem32[SP]; SP += 4 (stack-limit EDM)

	OpTRAP  Op = 0x51 // software-detected error (executable assertion), code imm20 [format I]
	OpIOW   Op = 0x53 // output port imm12 = rd
	OpIOR   Op = 0x54 // rd = input port imm12
	OpSYNC  Op = 0x55 // end of workload loop iteration: environment exchange, watchdog reset
	OpYIELD Op = 0x56 // task switch marker (drives the task-switch fault trigger)
)

// PSW flag bit positions.
const (
	FlagZ uint8 = 1 << 0 // zero
	FlagN uint8 = 1 << 1 // negative
	FlagC uint8 = 1 << 2 // carry / borrow
	FlagV uint8 = 1 << 3 // signed overflow
)

// Instr is a decoded instruction. Its 8 bytes keep the CPU's per-word
// predecode table small.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs  uint8
	Rt  uint8
	Imm int32 // sign-extended imm12 (format R) or imm20 (format I)
}

// formatI reports whether the opcode uses the rd+imm20 encoding.
func formatI(op Op) bool {
	switch op {
	case OpLDI, OpLUI, OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA, OpJAL, OpTRAP:
		return true
	default:
		return false
	}
}

// validOps is the set of defined opcodes; anything else raises the
// illegal-opcode EDM when fetched.
var validOps = map[Op]bool{
	OpNOP: true, OpHALT: true, OpMOV: true, OpLDI: true, OpLUI: true,
	OpADD: true, OpSUB: true, OpMUL: true, OpDIV: true, OpAND: true,
	OpOR: true, OpXOR: true, OpSHL: true, OpSHR: true, OpSAR: true,
	OpADDI: true, OpSUBI: true, OpCMP: true, OpCMPI: true,
	OpLD: true, OpST: true, OpLDB: true, OpSTB: true,
	OpBEQ: true, OpBNE: true, OpBLT: true, OpBGE: true, OpBGT: true,
	OpBLE: true, OpBRA: true, OpJAL: true, OpJR: true,
	OpPUSH: true, OpPOP: true,
	OpTRAP: true, OpIOW: true, OpIOR: true, OpSYNC: true, OpYIELD: true,
}

// opValid and opFormatI are validOps and formatI as opcode-indexed tables,
// derived once at init. Decode runs once per simulated instruction; indexing
// an array there costs a fraction of the map lookup it replaces.
var opValid, opFormatI [256]bool

func init() {
	for op := range validOps {
		opValid[op] = true
		opFormatI[op] = formatI(op)
	}
}

const (
	imm12Min = -(1 << 11)
	imm12Max = (1 << 11) - 1
	imm20Min = -(1 << 19)
	imm20Max = (1 << 19) - 1
)

// Encode packs an instruction into its 32-bit machine form.
func Encode(in Instr) (Word, error) {
	if !opValid[in.Op] {
		return 0, fmt.Errorf("encode: invalid opcode %#02x", uint8(in.Op))
	}
	if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
		return 0, fmt.Errorf("encode %v: register out of range", in.Op)
	}
	w := Word(in.Op) << 24
	if opFormatI[in.Op] {
		if in.Imm < imm20Min || in.Imm > imm20Max {
			return 0, fmt.Errorf("encode %v: imm20 %d out of range", in.Op, in.Imm)
		}
		w |= Word(in.Rd) << 20
		w |= Word(uint32(in.Imm) & 0xFFFFF)
		return w, nil
	}
	if in.Imm < imm12Min || in.Imm > imm12Max {
		return 0, fmt.Errorf("encode %v: imm12 %d out of range", in.Op, in.Imm)
	}
	w |= Word(in.Rd) << 20
	w |= Word(in.Rs) << 16
	w |= Word(in.Rt) << 12
	w |= Word(uint32(in.Imm) & 0xFFF)
	return w, nil
}

// Decode unpacks a machine word. Unknown opcodes return an error which the
// CPU converts into an illegal-opcode detection.
func Decode(w Word) (Instr, error) {
	op := Op(w >> 24)
	if !opValid[op] {
		return Instr{}, fmt.Errorf("decode: illegal opcode %#02x", uint8(op))
	}
	in := Instr{Op: op, Rd: uint8(w>>20) & 0xF}
	if opFormatI[op] {
		// Shift the immediate's sign bit to bit 31, then back arithmetically.
		in.Imm = int32(w<<12) >> 12
		return in, nil
	}
	in.Rs = uint8(w>>16) & 0xF
	in.Rt = uint8(w>>12) & 0xF
	in.Imm = int32(w<<20) >> 20
	return in, nil
}

// opNames maps opcodes to their assembly mnemonics (shared with the
// assembler in internal/asm).
var opNames = map[Op]string{
	OpNOP: "NOP", OpHALT: "HALT", OpMOV: "MOV", OpLDI: "LDI", OpLUI: "LUI",
	OpADD: "ADD", OpSUB: "SUB", OpMUL: "MUL", OpDIV: "DIV", OpAND: "AND",
	OpOR: "OR", OpXOR: "XOR", OpSHL: "SHL", OpSHR: "SHR", OpSAR: "SAR",
	OpADDI: "ADDI", OpSUBI: "SUBI", OpCMP: "CMP", OpCMPI: "CMPI",
	OpLD: "LD", OpST: "ST", OpLDB: "LDB", OpSTB: "STB",
	OpBEQ: "BEQ", OpBNE: "BNE", OpBLT: "BLT", OpBGE: "BGE", OpBGT: "BGT",
	OpBLE: "BLE", OpBRA: "BRA", OpJAL: "JAL", OpJR: "JR",
	OpPUSH: "PUSH", OpPOP: "POP",
	OpTRAP: "TRAP", OpIOW: "IOW", OpIOR: "IOR", OpSYNC: "SYNC", OpYIELD: "YIELD",
}

// String returns the assembly mnemonic of the opcode.
func (op Op) String() string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("OP(%#02x)", uint8(op))
}

// Mnemonics returns the full mnemonic→opcode table, used by the assembler.
func Mnemonics() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpNOP, OpHALT, OpSYNC, OpYIELD:
		return in.Op.String()
	case OpLDI, OpLUI:
		return fmt.Sprintf("%s R%d, %d", in.Op, in.Rd, in.Imm)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA, OpJAL:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case OpTRAP:
		return fmt.Sprintf("TRAP %d", in.Imm)
	case OpJR, OpPUSH, OpPOP:
		return fmt.Sprintf("%s R%d", in.Op, in.Rd)
	case OpMOV:
		return fmt.Sprintf("MOV R%d, R%d", in.Rd, in.Rs)
	case OpCMP:
		return fmt.Sprintf("CMP R%d, R%d", in.Rd, in.Rs)
	case OpCMPI:
		return fmt.Sprintf("CMPI R%d, %d", in.Rd, in.Imm)
	case OpLD, OpLDB:
		return fmt.Sprintf("%s R%d, [R%d%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpST, OpSTB:
		return fmt.Sprintf("%s R%d, [R%d%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpADDI, OpSUBI:
		return fmt.Sprintf("%s R%d, R%d, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case OpIOW, OpIOR:
		return fmt.Sprintf("%s R%d, %d", in.Op, in.Rd, in.Imm)
	default:
		return fmt.Sprintf("%s R%d, R%d, R%d", in.Op, in.Rd, in.Rs, in.Rt)
	}
}
