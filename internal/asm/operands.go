package asm

import (
	"fmt"
	"strconv"
	"strings"

	"goofi/internal/thor"
)

// parseRegName recognises R0..R15 and the SP/LR aliases.
func parseRegName(s string) (uint8, bool) {
	switch strings.ToUpper(s) {
	case "SP":
		return thor.RegSP, true
	case "LR":
		return thor.RegLR, true
	}
	up := strings.ToUpper(s)
	if !strings.HasPrefix(up, "R") {
		return 0, false
	}
	n, err := strconv.Atoi(up[1:])
	if err != nil || n < 0 || n >= thor.NumRegs {
		return 0, false
	}
	return uint8(n), true
}

func (a *assembler) reg(num int, s string) (uint8, error) {
	r, ok := parseRegName(strings.TrimSpace(s))
	if !ok {
		return 0, a.errf(num, "expected register, got %q", s)
	}
	return r, nil
}

// evalConst evaluates an expression during pass 1, where every symbol used
// must already be defined (needed by .org/.space/.equ).
func (a *assembler) evalConst(num int, s string) (uint32, error) {
	v, err := a.evalExpr(num, s)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}

// evalExpr evaluates numeric operands: literals, character constants,
// symbols, unary minus, and binary +/- between terms.
func (a *assembler) evalExpr(num int, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf(num, "empty expression")
	}
	// Scan left to right over +/- separated terms, honouring a leading sign.
	total := int64(0)
	sign := int64(1)
	i := 0
	first := true
	for i < len(s) {
		switch s[i] {
		case '+':
			sign = 1
			i++
			continue
		case '-':
			sign = -1
			i++
			continue
		case ' ', '\t':
			i++
			continue
		}
		j := i
		if s[j] == '\'' { // character constant
			j++
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return 0, a.errf(num, "unterminated character constant in %q", s)
			}
			j++
		} else {
			for j < len(s) && s[j] != '+' && s[j] != '-' && s[j] != ' ' && s[j] != '\t' {
				j++
			}
		}
		term, err := a.evalTerm(num, s[i:j])
		if err != nil {
			return 0, err
		}
		total += sign * term
		sign = 1
		first = false
		i = j
	}
	if first {
		return 0, a.errf(num, "malformed expression %q", s)
	}
	return total, nil
}

func (a *assembler) evalTerm(num int, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf(num, "empty term")
	}
	// Character constant.
	if strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'") && len(s) >= 3 {
		inner := s[1 : len(s)-1]
		if len(inner) != 1 {
			return 0, a.errf(num, "character constant %q must hold one byte", s)
		}
		return int64(inner[0]), nil
	}
	// Numeric literal (hex, binary, octal, decimal via ParseInt base 0).
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(v), nil
	}
	// Symbol.
	if v, ok := a.symbols[s]; ok {
		return int64(v), nil
	}
	if isSymbolName(s) {
		return 0, a.errf(num, "undefined symbol %q", s)
	}
	return 0, a.errf(num, "malformed operand %q", s)
}

// memOperand parses "[Rn]", "[Rn+expr]" or "[Rn-expr]".
func (a *assembler) memOperand(num int, s string) (reg uint8, off int64, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, a.errf(num, "expected memory operand [Rn+off], got %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	// Find the end of the register name.
	sep := strings.IndexAny(inner, "+-")
	regPart := inner
	var offPart string
	if sep > 0 {
		regPart = strings.TrimSpace(inner[:sep])
		offPart = inner[sep:] // keep the sign
	}
	r, ok := parseRegName(regPart)
	if !ok {
		return 0, 0, a.errf(num, "bad base register in %q", s)
	}
	if offPart != "" {
		off, err = a.evalExpr(num, offPart)
		if err != nil {
			return 0, 0, err
		}
	}
	return r, off, nil
}

// instruction assembles one mnemonic line. During pass 1 it only advances
// the location counter (every instruction is exactly one word).
func (a *assembler) instruction(ln line, encode bool) error {
	defer a.advance(4)
	if !encode {
		// Validate the mnemonic early so pass 1 reports unknown ops.
		if _, ok := a.ops[ln.op]; !ok && ln.op != "RET" && ln.op != "CALL" {
			return a.errf(ln.num, "unknown instruction %q", ln.op)
		}
		return nil
	}

	// Pseudo-instructions.
	op := ln.op
	args := ln.args
	switch op {
	case "RET":
		if len(args) != 0 {
			return a.errf(ln.num, "RET takes no operands")
		}
		op, args = "JR", []string{"LR"}
	case "CALL":
		op = "JAL"
	}

	code, ok := a.ops[op]
	if !ok {
		return a.errf(ln.num, "unknown instruction %q", op)
	}

	in := thor.Instr{Op: code}
	need := func(n int) error {
		if len(args) != n {
			return a.errf(ln.num, "%s takes %d operand(s), got %d", op, n, len(args))
		}
		return nil
	}
	var err error
	switch code {
	case thor.OpNOP, thor.OpHALT, thor.OpSYNC, thor.OpYIELD:
		if err = need(0); err != nil {
			return err
		}
	case thor.OpMOV, thor.OpCMP:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		if in.Rs, err = a.reg(ln.num, args[1]); err != nil {
			return err
		}
	case thor.OpLDI, thor.OpLUI:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		v, err := a.evalExpr(ln.num, args[1])
		if err != nil {
			return err
		}
		in.Imm = int32(v)
	case thor.OpADD, thor.OpSUB, thor.OpMUL, thor.OpDIV, thor.OpAND,
		thor.OpOR, thor.OpXOR, thor.OpSHL, thor.OpSHR, thor.OpSAR:
		if err = need(3); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		if in.Rs, err = a.reg(ln.num, args[1]); err != nil {
			return err
		}
		if in.Rt, err = a.reg(ln.num, args[2]); err != nil {
			return err
		}
	case thor.OpADDI, thor.OpSUBI:
		if err = need(3); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		if in.Rs, err = a.reg(ln.num, args[1]); err != nil {
			return err
		}
		v, err := a.evalExpr(ln.num, args[2])
		if err != nil {
			return err
		}
		in.Imm = int32(v)
	case thor.OpCMPI:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		v, err := a.evalExpr(ln.num, args[1])
		if err != nil {
			return err
		}
		in.Imm = int32(v)
	case thor.OpLD, thor.OpST, thor.OpLDB, thor.OpSTB:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		r, off, err := a.memOperand(ln.num, args[1])
		if err != nil {
			return err
		}
		in.Rs = r
		in.Imm = int32(off)
	case thor.OpBEQ, thor.OpBNE, thor.OpBLT, thor.OpBGE,
		thor.OpBGT, thor.OpBLE, thor.OpBRA, thor.OpJAL:
		if err = need(1); err != nil {
			return err
		}
		off, err := a.branchOffset(ln.num, args[0])
		if err != nil {
			return err
		}
		in.Imm = off
	case thor.OpJR, thor.OpPUSH, thor.OpPOP:
		if err = need(1); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
	case thor.OpTRAP:
		if err = need(1); err != nil {
			return err
		}
		v, err := a.evalExpr(ln.num, args[0])
		if err != nil {
			return err
		}
		in.Imm = int32(v)
	case thor.OpIOW, thor.OpIOR:
		if err = need(2); err != nil {
			return err
		}
		if in.Rd, err = a.reg(ln.num, args[0]); err != nil {
			return err
		}
		v, err := a.evalExpr(ln.num, args[1])
		if err != nil {
			return err
		}
		in.Imm = int32(v)
	default:
		return a.errf(ln.num, "unhandled opcode %v", code)
	}

	w, err := thor.Encode(in)
	if err != nil {
		return a.errf(ln.num, "%v", err)
	}
	a.put(ln.num, w)
	return nil
}

// branchOffset resolves a branch target: a known label becomes a
// PC-relative word offset; a bare number is taken as an already-relative
// word offset.
func (a *assembler) branchOffset(num int, s string) (int32, error) {
	s = strings.TrimSpace(s)
	if v, ok := a.symbols[s]; ok {
		delta := int64(v) - int64(a.pc) - 4
		if delta%4 != 0 {
			return 0, a.errf(num, "branch target %q not word-aligned", s)
		}
		return int32(delta / 4), nil
	}
	if isSymbolName(s) {
		return 0, a.errf(num, "undefined label %q", s)
	}
	v, err := a.evalExpr(num, s)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

// Disassemble renders a machine word as assembly text, used by listings and
// the detail-mode trace output.
func Disassemble(w uint32) string {
	in, err := thor.Decode(w)
	if err != nil {
		return fmt.Sprintf(".word %#08x", w)
	}
	return in.String()
}
