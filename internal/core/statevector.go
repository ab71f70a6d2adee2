// Package core implements GOOFI's fault-injection campaign engine: the Go
// rendering of the paper's FaultInjectionAlgorithms class (Fig. 2) plus the
// campaign runner with reference runs, normal/detail logging modes and
// progress control (Fig. 7).
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"goofi/internal/scan"
	"goofi/internal/target"
)

// encodedSize returns the exact Encode output length, so serialisation runs
// as appends into one right-sized allocation.
func (sv *StateVector) encodedSize() int {
	n := len(svMagic) + 4
	for _, c := range sv.Chains {
		n += 4 + len(c.Name) + 4 + 4 + len(c.Data)
	}
	n += 4 + 8*len(sv.Memory)
	n += 4
	for _, iter := range sv.Env {
		n += 4 + 4*len(iter)
	}
	n += 4
	for _, tr := range sv.Trace {
		n += 8 + 4 + 4 + len(tr.Disasm) + 4 + len(tr.Core)
	}
	return n
}

// StateVector is the logged system state of one experiment: the contents of
// every observed scan chain, the workload's result memory, the environment
// exchange history and, in detail mode, the per-instruction trace. It is
// serialised into LoggedSystemState.stateVector (paper §2.3, §3.3).
type StateVector struct {
	Chains []ChainState
	Memory []MemWord
	Env    [][]uint32
	Trace  []TraceSample
}

// ChainState is one captured scan chain.
type ChainState struct {
	Name string
	Bits int
	Data []byte // scan.Bits.Pack encoding
}

// MemWord is one observed memory word.
type MemWord struct {
	Addr  uint32
	Value uint32
}

// TraceSample is one detail-mode record.
type TraceSample struct {
	Cycle  uint64
	PC     uint32
	Disasm string
	Core   []byte // packed core-chain bits
}

const (
	svMagic   = "GSV1"
	svMaxStr  = 1 << 16
	svMaxList = 1 << 24
)

// Encode serialises the vector with direct little-endian appends into one
// exactly-sized buffer — no reflection, no intermediate writer.
func (sv *StateVector) Encode() []byte {
	buf := make([]byte, 0, sv.encodedSize())
	buf = append(buf, svMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sv.Chains)))
	for _, c := range sv.Chains {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Bits))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Data)))
		buf = append(buf, c.Data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sv.Memory)))
	for _, m := range sv.Memory {
		buf = binary.LittleEndian.AppendUint32(buf, m.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, m.Value)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sv.Env)))
	for _, iter := range sv.Env {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(iter)))
		for _, v := range iter {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sv.Trace)))
	for _, tr := range sv.Trace {
		buf = binary.LittleEndian.AppendUint64(buf, tr.Cycle)
		buf = binary.LittleEndian.AppendUint32(buf, tr.PC)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.Disasm)))
		buf = append(buf, tr.Disasm...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.Core)))
		buf = append(buf, tr.Core...)
	}
	return buf
}

// svCursor walks an encoded state vector. Every read checks the remaining
// length first, so a truncated input fails loudly instead of yielding
// zero-filled garbage (the partial-read hazard of bytes.Reader.Read).
type svCursor struct {
	data []byte
	off  int
}

func (c *svCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.data)-c.off < n {
		return nil, fmt.Errorf("need %d bytes, %d left", n, len(c.data)-c.off)
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b, nil
}

func (c *svCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *svCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *svCursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if n > svMaxStr {
		return "", fmt.Errorf("string length %d too large", n)
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *svCursor) bytes() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > svMaxList {
		return nil, fmt.Errorf("byte block length %d too large", n)
	}
	return c.take(int(n))
}

// env decodes the environment history section. A first pass walks the
// length prefixes, checking each iteration against the bytes actually left,
// so nothing is ever sized from a claimed count; then every iteration is
// filled into one exactly-sized backing array as a cap-clamped window.
func (c *svCursor) env() ([][]uint32, error) {
	nEnv, err := c.u32()
	if err != nil {
		return nil, err
	}
	if nEnv > svMaxList {
		return nil, fmt.Errorf("iteration count %d too large", nEnv)
	}
	walk := *c
	words := 0
	for i := uint32(0); i < nEnv; i++ {
		n, err := walk.u32()
		if err == nil && n > svMaxList {
			err = fmt.Errorf("length %d too large", n)
		}
		if err == nil {
			_, err = walk.take(4 * int(n))
		}
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		words += int(n)
	}
	if nEnv == 0 {
		return nil, nil
	}
	vals := make([]uint32, words)
	env := make([][]uint32, nEnv)
	start := 0
	for i := range env {
		// The walk above proved every read below in bounds.
		n, _ := c.u32()
		b, _ := c.take(4 * int(n))
		end := start + int(n)
		iter := vals[start:end:end]
		for j := range iter {
			iter[j] = binary.LittleEndian.Uint32(b[4*j:])
		}
		env[i] = iter
		start = end
	}
	return env, nil
}

// DecodeStateVector inverts Encode. Byte blocks in the result alias the
// input slice; callers must not mutate data afterwards.
func DecodeStateVector(data []byte) (*StateVector, error) {
	c := &svCursor{data: data}
	magic, err := c.take(4)
	if err != nil || string(magic) != svMagic {
		return nil, fmt.Errorf("core: state vector has bad magic")
	}
	fail := func(section string, err error) (*StateVector, error) {
		if err == nil {
			err = fmt.Errorf("count exceeds limit")
		}
		return nil, fmt.Errorf("core: decode state vector %s: %w", section, err)
	}

	sv := &StateVector{}
	nChains, err := c.u32()
	if err != nil || nChains > svMaxList {
		return fail("chain count", err)
	}
	for i := uint32(0); i < nChains; i++ {
		name, err := c.str()
		if err != nil {
			return fail("chain name", err)
		}
		bits, err := c.u32()
		if err != nil {
			return fail("chain bits", err)
		}
		data, err := c.bytes()
		if err != nil {
			return fail("chain data", err)
		}
		sv.Chains = append(sv.Chains, ChainState{Name: name, Bits: int(bits), Data: data})
	}
	nMem, err := c.u32()
	if err != nil || nMem > svMaxList {
		return fail("memory count", err)
	}
	for i := uint32(0); i < nMem; i++ {
		addr, err := c.u32()
		if err != nil {
			return fail("memory addr", err)
		}
		val, err := c.u32()
		if err != nil {
			return fail("memory value", err)
		}
		sv.Memory = append(sv.Memory, MemWord{Addr: addr, Value: val})
	}
	if sv.Env, err = c.env(); err != nil {
		return fail("env history", err)
	}
	nTrace, err := c.u32()
	if err != nil || nTrace > svMaxList {
		return fail("trace count", err)
	}
	for i := uint32(0); i < nTrace; i++ {
		cycle, err := c.u64()
		if err != nil {
			return fail("trace cycle", err)
		}
		pc, err := c.u32()
		if err != nil {
			return fail("trace pc", err)
		}
		dis, err := c.str()
		if err != nil {
			return fail("trace disasm", err)
		}
		coreBits, err := c.bytes()
		if err != nil {
			return fail("trace core", err)
		}
		sv.Trace = append(sv.Trace, TraceSample{Cycle: cycle, PC: pc, Disasm: dis, Core: coreBits})
	}
	if rest := len(c.data) - c.off; rest != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes in state vector", rest)
	}
	return sv, nil
}

// OutputsEqual reports whether the workload-visible outputs — result memory
// and environment exchange history — match. A mismatch is the paper's
// "incorrect results" escaped failure.
func (sv *StateVector) OutputsEqual(o *StateVector) bool {
	if len(sv.Memory) != len(o.Memory) || len(sv.Env) != len(o.Env) {
		return false
	}
	for i := range sv.Memory {
		if sv.Memory[i] != o.Memory[i] {
			return false
		}
	}
	for i := range sv.Env {
		if len(sv.Env[i]) != len(o.Env[i]) {
			return false
		}
		for j := range sv.Env[i] {
			if sv.Env[i][j] != o.Env[i][j] {
				return false
			}
		}
	}
	return true
}

// StateEqual reports whether the full observable state (chains + outputs)
// matches. Equal state means the injected fault was overwritten (§3.4).
func (sv *StateVector) StateEqual(o *StateVector) bool {
	if !sv.OutputsEqual(o) {
		return false
	}
	if len(sv.Chains) != len(o.Chains) {
		return false
	}
	for i := range sv.Chains {
		a, b := sv.Chains[i], o.Chains[i]
		if a.Name != b.Name || a.Bits != b.Bits || !bytes.Equal(a.Data, b.Data) {
			return false
		}
	}
	return true
}

// DiffSummary renders a short description of where two vectors differ, for
// experiment reports.
func (sv *StateVector) DiffSummary(o *StateVector) string {
	var sb bytes.Buffer
	for i := range sv.Chains {
		if i >= len(o.Chains) {
			break
		}
		a, b := sv.Chains[i], o.Chains[i]
		if a.Name != b.Name || a.Bits != b.Bits {
			fmt.Fprintf(&sb, "chain %s shape differs; ", a.Name)
			continue
		}
		// Popcount the packed encodings directly — no unpacking needed.
		if d := scan.PackedOnesCountDiff(a.Data, b.Data); d > 0 {
			fmt.Fprintf(&sb, "chain %s: %d bit(s) differ; ", a.Name, d)
		}
	}
	nm := 0
	for i := range sv.Memory {
		if i < len(o.Memory) && sv.Memory[i] != o.Memory[i] {
			nm++
		}
	}
	if nm > 0 {
		fmt.Fprintf(&sb, "memory: %d word(s) differ; ", nm)
	}
	ne := 0
	for i := range sv.Env {
		if i >= len(o.Env) {
			ne++
			continue
		}
		for j := range sv.Env[i] {
			if j >= len(o.Env[i]) || sv.Env[i][j] != o.Env[i][j] {
				ne++
				break
			}
		}
	}
	if len(sv.Env) != len(o.Env) || ne > 0 {
		fmt.Fprintf(&sb, "env history: %d iteration(s) differ; ", ne)
	}
	if sb.Len() == 0 {
		return "identical"
	}
	return sb.String()
}

// captureState reads the observable state through the target operations:
// every scan chain, the workload's result memory and the recorded
// environment history (§3.3: "the logged system state typically includes
// the contents of all the locations in the target system that are
// observable ... as well as the workload input and output values").
func captureState(ops target.Operations, resultAddrs []uint32, trace []target.TraceEntry) (*StateVector, error) {
	chains := ops.Chains()
	// All chain images (and trace samples) pack into one contiguous buffer:
	// one allocation for the whole capture tail instead of one per chain.
	packed := 0
	for _, ci := range chains {
		packed += (ci.Bits + 7) / 8
	}
	for _, te := range trace {
		packed += (te.Core.Len() + 7) / 8
	}
	buf := make([]byte, 0, packed)

	sv := &StateVector{Chains: make([]ChainState, 0, len(chains))}
	for _, ci := range chains {
		bits, err := ops.ReadScanChain(ci.Name)
		if err != nil {
			return nil, fmt.Errorf("capture state: %w", err)
		}
		start := len(buf)
		buf = bits.AppendPacked(buf)
		sv.Chains = append(sv.Chains, ChainState{Name: ci.Name, Bits: bits.Len(), Data: buf[start:len(buf):len(buf)]})
	}
	if len(resultAddrs) > 0 {
		sv.Memory = make([]MemWord, 0, len(resultAddrs))
	}
	for _, addr := range resultAddrs {
		vals, err := ops.ReadMemory(addr, 1)
		if err != nil {
			return nil, fmt.Errorf("capture state: %w", err)
		}
		sv.Memory = append(sv.Memory, MemWord{Addr: addr, Value: vals[0]})
	}
	sv.Env = ops.EnvHistory()
	if len(trace) > 0 {
		sv.Trace = make([]TraceSample, 0, len(trace))
	}
	for _, te := range trace {
		start := len(buf)
		buf = te.Core.AppendPacked(buf)
		sv.Trace = append(sv.Trace, TraceSample{
			Cycle:  te.Cycle,
			PC:     te.PC,
			Disasm: te.Disasm,
			Core:   buf[start:len(buf):len(buf)],
		})
	}
	return sv, nil
}
