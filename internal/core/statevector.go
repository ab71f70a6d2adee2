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

// block reads a length-prefixed byte block of at most limit bytes; kind
// names it in the error ("string", "byte block").
func (c *svCursor) block(limit uint32, kind string) ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("%s length %d too large", kind, n)
	}
	return c.take(int(n))
}

func (c *svCursor) str() ([]byte, error)   { return c.block(svMaxStr, "string") }
func (c *svCursor) bytes() ([]byte, error) { return c.block(svMaxList, "byte block") }

// svLayout locates the sections of a validated encoding. Each offset is
// where that section's count prefix starts, and each section ends where the
// next begins: chains | memory | env | trace, then the end of the data.
type svLayout struct {
	chains, memory, env, trace int
}

// walkStateVector is the one validator of the state-vector encoding: it
// checks the magic, every count and length against its limit and against
// the bytes actually left, and that nothing trails the trace section. It
// reads only length prefixes and fixed-width fields and allocates nothing
// unless it fails. DecodeStateVector and StateSections both start here.
func walkStateVector(data []byte) (svLayout, error) {
	var l svLayout
	c := svCursor{data: data}
	magic, err := c.take(4)
	if err != nil || string(magic) != svMagic {
		return l, fmt.Errorf("core: state vector has bad magic")
	}
	fail := func(section string, err error) (svLayout, error) {
		if err == nil {
			err = fmt.Errorf("count exceeds limit")
		}
		return svLayout{}, fmt.Errorf("core: decode state vector %s: %w", section, err)
	}

	l.chains = c.off
	nChains, err := c.u32()
	if err != nil || nChains > svMaxList {
		return fail("chain count", err)
	}
	for i := uint32(0); i < nChains; i++ {
		if _, err := c.str(); err != nil {
			return fail("chain name", err)
		}
		if _, err := c.u32(); err != nil {
			return fail("chain bits", err)
		}
		if _, err := c.bytes(); err != nil {
			return fail("chain data", err)
		}
	}

	l.memory = c.off
	nMem, err := c.u32()
	if err != nil || nMem > svMaxList {
		return fail("memory count", err)
	}
	for i := uint32(0); i < nMem; i++ {
		if _, err := c.u32(); err != nil {
			return fail("memory addr", err)
		}
		if _, err := c.u32(); err != nil {
			return fail("memory value", err)
		}
	}

	l.env = c.off
	nEnv, err := c.u32()
	if err == nil && nEnv > svMaxList {
		err = fmt.Errorf("iteration count %d too large", nEnv)
	}
	if err != nil {
		return fail("env history", err)
	}
	for i := uint32(0); i < nEnv; i++ {
		n, err := c.u32()
		if err == nil && n > svMaxList {
			err = fmt.Errorf("length %d too large", n)
		}
		if err == nil {
			_, err = c.take(4 * int(n))
		}
		if err != nil {
			return fail("env history", fmt.Errorf("iteration %d: %w", i, err))
		}
	}

	l.trace = c.off
	nTrace, err := c.u32()
	if err != nil || nTrace > svMaxList {
		return fail("trace count", err)
	}
	for i := uint32(0); i < nTrace; i++ {
		if _, err := c.u64(); err != nil {
			return fail("trace cycle", err)
		}
		if _, err := c.u32(); err != nil {
			return fail("trace pc", err)
		}
		if _, err := c.str(); err != nil {
			return fail("trace disasm", err)
		}
		if _, err := c.bytes(); err != nil {
			return fail("trace core", err)
		}
	}
	if rest := len(c.data) - c.off; rest != 0 {
		return svLayout{}, fmt.Errorf("core: %d trailing bytes in state vector", rest)
	}
	return l, nil
}

// StateSections validates an encoded state vector exactly as
// DecodeStateVector does and returns, without allocating, two spans of it:
// the chain section and the outputs section (memory followed by env
// history). The encoding is canonical, so two valid vectors have equal
// outputs spans exactly when OutputsEqual holds for their decodings, and
// equal spans of both kinds exactly when StateEqual holds. Both spans alias
// data.
func StateSections(data []byte) (chains, outputs []byte, err error) {
	l, err := walkStateVector(data)
	if err != nil {
		return nil, nil, err
	}
	return data[l.chains:l.memory], data[l.memory:l.trace], nil
}

// DecodeStateVector inverts Encode. Byte blocks in the result alias the
// input slice; callers must not mutate data afterwards.
func DecodeStateVector(data []byte) (*StateVector, error) {
	l, err := walkStateVector(data)
	if err != nil {
		return nil, err
	}
	// The walk proved every read below in bounds and every count within its
	// limit, so slices are sized from the counts and read errors cannot occur.
	c := &svCursor{data: data, off: l.chains}
	sv := &StateVector{}
	if n, _ := c.u32(); n > 0 {
		sv.Chains = make([]ChainState, n)
		for i := range sv.Chains {
			name, _ := c.str()
			bits, _ := c.u32()
			data, _ := c.bytes()
			sv.Chains[i] = ChainState{Name: string(name), Bits: int(bits), Data: data}
		}
	}
	if n, _ := c.u32(); n > 0 {
		sv.Memory = make([]MemWord, n)
		for i := range sv.Memory {
			addr, _ := c.u32()
			val, _ := c.u32()
			sv.Memory[i] = MemWord{Addr: addr, Value: val}
		}
	}
	if n, _ := c.u32(); n > 0 {
		// Every iteration is a cap-clamped window of one backing array: the
		// section holds one length word per iteration plus the values.
		vals := make([]uint32, (l.trace-c.off)/4-int(n))
		sv.Env = make([][]uint32, n)
		start := 0
		for i := range sv.Env {
			w, _ := c.u32()
			b, _ := c.take(4 * int(w))
			end := start + int(w)
			iter := vals[start:end:end]
			for j := range iter {
				iter[j] = binary.LittleEndian.Uint32(b[4*j:])
			}
			sv.Env[i] = iter
			start = end
		}
	}
	if n, _ := c.u32(); n > 0 {
		sv.Trace = make([]TraceSample, n)
		for i := range sv.Trace {
			cycle, _ := c.u64()
			pc, _ := c.u32()
			dis, _ := c.str()
			coreBits, _ := c.bytes()
			sv.Trace[i] = TraceSample{Cycle: cycle, PC: pc, Disasm: string(dis), Core: coreBits}
		}
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

// emptyState is the empty vector's encoding, logged for experiments that
// captured no state: hang and failed rows, and techniques returning a nil
// Experiment.State. Rows share it; nothing writes to it.
var emptyState = (&StateVector{}).Encode()

// captureState reads the observable state through the target operations:
// every scan chain, the workload's result memory and the recorded
// environment history (§3.3: "the logged system state typically includes
// the contents of all the locations in the target system that are
// observable ... as well as the workload input and output values"), plus
// the detail-mode trace. It returns the state in its wire encoding
// (StateVector.Encode), appended once into one exactly sized buffer that
// the row keeps as is: chain images are packed in place and the env log is
// copied straight from the target's view.
func captureState(ops target.Operations, resultAddrs []uint32, trace []target.TraceEntry) ([]byte, error) {
	chains := ops.Chains()
	envVals, envEnds := ops.EnvLog()
	n := len(svMagic) + 4
	for _, ci := range chains {
		n += 4 + len(ci.Name) + 4 + 4 + (ci.Bits+7)/8
	}
	n += 4 + 8*len(resultAddrs)
	n += 4 + 4*len(envEnds) + 4*len(envVals)
	n += 4
	for _, te := range trace {
		n += 8 + 4 + 4 + len(te.Disasm) + 4 + (te.Core.Len()+7)/8
	}

	le := binary.LittleEndian
	buf := make([]byte, 0, n)
	buf = append(buf, svMagic...)
	buf = le.AppendUint32(buf, uint32(len(chains)))
	for _, ci := range chains {
		bits, err := ops.ReadScanChain(ci.Name)
		if err != nil {
			return nil, fmt.Errorf("capture state: %w", err)
		}
		buf = le.AppendUint32(buf, uint32(len(ci.Name)))
		buf = append(buf, ci.Name...)
		buf = le.AppendUint32(buf, uint32(bits.Len()))
		buf = le.AppendUint32(buf, uint32((bits.Len()+7)/8))
		buf = bits.AppendPacked(buf)
	}
	buf = le.AppendUint32(buf, uint32(len(resultAddrs)))
	for _, addr := range resultAddrs {
		vals, err := ops.ReadMemory(addr, 1)
		if err != nil {
			return nil, fmt.Errorf("capture state: %w", err)
		}
		buf = le.AppendUint32(buf, addr)
		buf = le.AppendUint32(buf, vals[0])
	}
	buf = le.AppendUint32(buf, uint32(len(envEnds)))
	start := uint32(0)
	for _, end := range envEnds {
		buf = le.AppendUint32(buf, end-start)
		for _, v := range envVals[start:end] {
			buf = le.AppendUint32(buf, v)
		}
		start = end
	}
	buf = le.AppendUint32(buf, uint32(len(trace)))
	for _, te := range trace {
		buf = le.AppendUint64(buf, te.Cycle)
		buf = le.AppendUint32(buf, te.PC)
		buf = le.AppendUint32(buf, uint32(len(te.Disasm)))
		buf = append(buf, te.Disasm...)
		buf = le.AppendUint32(buf, uint32((te.Core.Len()+7)/8))
		buf = te.Core.AppendPacked(buf)
	}
	return buf, nil
}
