package thor

import (
	"encoding/binary"
	"fmt"
)

// Status describes the execution state of the CPU.
type Status int

// CPU execution states.
const (
	// StatusRunning means the CPU can execute further instructions.
	StatusRunning Status = iota + 1
	// StatusHalted means the workload executed HALT (normal completion).
	StatusHalted
	// StatusDetected means a hardware or software error detection mechanism
	// fired and execution stopped (the paper's "detected error" outcome).
	StatusDetected
)

// String returns a readable status name.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusDetected:
		return "detected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Error detection mechanism names. The analysis phase (§3.4) classifies
// detected errors per mechanism under these keys.
const (
	EDMICacheParity  = "icache-parity"
	EDMDCacheParity  = "dcache-parity"
	EDMIllegalOpcode = "illegal-opcode"
	EDMAccess        = "access-violation"
	EDMROMWrite      = "rom-write"
	EDMDivZero       = "div-zero"
	EDMStackLimit    = "stack-limit"
	EDMWatchdog      = "watchdog"
	EDMControlFlow   = "control-flow"
	EDMAssertion     = "assertion" // software TRAP (executable assertions)
)

// Detection records a fired error detection mechanism.
type Detection struct {
	// Mechanism is one of the EDM* constants.
	Mechanism string
	// Code carries the TRAP immediate for assertion detections, 0 otherwise.
	Code int32
	// PC is the program counter at detection time.
	PC uint32
	// Cycle is the instruction count at detection time.
	Cycle uint64
}

func (d Detection) String() string {
	return fmt.Sprintf("%s at pc=%#x cycle=%d code=%d", d.Mechanism, d.PC, d.Cycle, d.Code)
}

// Events summarises what the last executed instruction did; the fault
// triggers of internal/trigger key off these.
type Events struct {
	BranchTaken bool
	Call        bool // JAL executed
	TaskSwitch  bool // YIELD executed
	Sync        bool // SYNC executed (loop iteration boundary)
	MemRead     bool
	MemWrite    bool
	MemAddr     uint32
	MemValue    uint32 // value loaded or stored
	RegsRead    uint16 // bitmask of registers read
	RegsWritten uint16 // bitmask of registers written
}

// TraceRecord is handed to the trace hook after every instruction in detail
// mode and during pre-injection analysis.
type TraceRecord struct {
	Cycle  uint64
	PC     uint32 // address of the executed instruction
	Raw    Word
	Instr  Instr
	Events Events
}

// Config sizes the processor. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// MemSize is the total byte size of physical memory.
	MemSize uint32
	// ROMSize is the size of the write-protected code region starting at 0.
	ROMSize uint32
	// ICacheLines and DCacheLines size the direct-mapped caches.
	ICacheLines int
	DCacheLines int
	// StackBase is the initial stack pointer (grows down); StackLimit is the
	// lowest legal SP value (stack-limit EDM).
	StackBase  uint32
	StackLimit uint32
	// WatchdogLimit is the maximum number of instructions between SYNCs
	// before the watchdog EDM fires. 0 disables the watchdog.
	WatchdogLimit uint64
	// IOBase/IOEnd bound the uncached memory-mapped I/O window used for the
	// environment exchange. Loads and stores inside [IOBase, IOEnd) bypass
	// the data cache so test-card writes are immediately visible, exactly
	// like an uncached I/O region on real hardware. Both zero disables the
	// window.
	IOBase uint32
	IOEnd  uint32
}

// DefaultConfig returns the configuration used throughout the reproduction:
// 64 KiB memory with a 16 KiB ROM, 64-line caches, 4 KiB stack.
func DefaultConfig() Config {
	return Config{
		MemSize:       64 * 1024,
		ROMSize:       16 * 1024,
		ICacheLines:   64,
		DCacheLines:   64,
		StackBase:     64 * 1024,
		StackLimit:    60 * 1024,
		WatchdogLimit: 0,
		IOBase:        0x7000,
		IOEnd:         0x8000,
	}
}

// CPU is the simulated processor. Architectural state that scan chains can
// reach is exported; everything else is internal.
type CPU struct {
	// Regs is the general-purpose register file.
	Regs [NumRegs]uint32
	// PC is the program counter.
	PC uint32
	// PSW is the program status word (flag bits Flag*).
	PSW uint8
	// IR, MAR and MDR are pipeline latches: the last fetched instruction
	// word, memory address register and memory data register. They are
	// rewritten by almost every instruction, so faults injected into them
	// are frequently overwritten — mirroring real scan-chain campaigns.
	IR  uint32
	MAR uint32
	MDR uint32
	// AddrBus, DataBus and CtrlBus model the boundary-scan pin latches.
	AddrBus uint32
	DataBus uint32
	CtrlBus uint8

	cfg       Config
	mem       []byte
	decoded   []decodedWord // predecode table, one entry per ROM word
	icache    *Cache
	dcache    *Cache
	wdCounter uint64
	cycles    uint64
	iters     uint64
	status    Status
	detection *Detection
	inPorts   [16]uint32
	outPorts  [16]uint32
	syncHook  func(*CPU)
	traceHook func(TraceRecord)
	last      Events
}

// decodedWord caches Decode and regUse of the ROM word raw. Step uses an
// entry only while the fetched word still equals raw, so a fault injected
// into the I-cache or ROM, a host rewrite or a Restore simply misses and
// decodes the word actually fetched; nothing ever invalidates the table.
// The zero entry is the correct decode of word 0 (NOP), so a new table
// needs no fill.
type decodedWord struct {
	raw           Word
	in            Instr
	read, written uint16
}

// New builds a CPU from cfg.
func New(cfg Config) (*CPU, error) {
	// These checks leave MemSize and ROMSize at least 4, so the access checks
	// can compare addr > size-4; addr+4 > size wraps at 0xFFFFFFFC.
	switch {
	case cfg.MemSize == 0 || cfg.MemSize%4 != 0:
		return nil, fmt.Errorf("thor: MemSize %d must be a positive multiple of 4", cfg.MemSize)
	case cfg.ROMSize == 0 || cfg.ROMSize%4 != 0 || cfg.ROMSize > cfg.MemSize:
		return nil, fmt.Errorf("thor: ROMSize %d invalid for MemSize %d", cfg.ROMSize, cfg.MemSize)
	case cfg.ICacheLines <= 0 || cfg.DCacheLines <= 0:
		return nil, fmt.Errorf("thor: cache sizes must be positive")
	case cfg.StackBase > cfg.MemSize || cfg.StackLimit >= cfg.StackBase:
		return nil, fmt.Errorf("thor: stack region [%#x, %#x) invalid", cfg.StackLimit, cfg.StackBase)
	}
	c := &CPU{
		cfg:     cfg,
		mem:     make([]byte, cfg.MemSize),
		decoded: make([]decodedWord, cfg.ROMSize/4),
		icache:  newCache(cfg.ICacheLines),
		dcache:  newCache(cfg.DCacheLines),
	}
	c.Reset()
	return c, nil
}

// Config returns the CPU's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Reset restores the architectural state to power-on: registers, flags and
// latches cleared, caches invalidated, SP at StackBase. Memory contents are
// preserved so a loaded workload survives (the test card reloads memory
// explicitly between experiments, as in the paper's algorithm).
func (c *CPU) Reset() {
	for i := range c.Regs {
		c.Regs[i] = 0
	}
	c.Regs[RegSP] = c.cfg.StackBase
	c.PC = 0
	c.PSW = 0
	c.IR, c.MAR, c.MDR = 0, 0, 0
	c.AddrBus, c.DataBus, c.CtrlBus = 0, 0, 0
	c.icache.invalidate()
	c.dcache.invalidate()
	c.wdCounter = 0
	c.cycles = 0
	c.iters = 0
	c.status = StatusRunning
	c.detection = nil
	c.inPorts = [16]uint32{}
	c.outPorts = [16]uint32{}
	c.last = Events{}
}

// ClearMemory zeroes all memory (used before loading a fresh workload).
func (c *CPU) ClearMemory() {
	for i := range c.mem {
		c.mem[i] = 0
	}
}

// SetSyncHook installs the environment-exchange callback invoked on SYNC.
func (c *CPU) SetSyncHook(fn func(*CPU)) { c.syncHook = fn }

// SetTraceHook installs a per-instruction callback (detail mode / analysis).
// Pass nil to disable tracing.
func (c *CPU) SetTraceHook(fn func(TraceRecord)) { c.traceHook = fn }

// Status returns the current execution status.
func (c *CPU) Status() Status { return c.status }

// Detection returns the recorded detection, or nil.
func (c *CPU) Detection() *Detection {
	if c.detection == nil {
		return nil
	}
	d := *c.detection
	return &d
}

// Cycles returns the number of executed instructions since Reset.
func (c *CPU) Cycles() uint64 { return c.cycles }

// Iterations returns the number of SYNC instructions executed since Reset.
func (c *CPU) Iterations() uint64 { return c.iters }

// LastEvents returns the event summary of the most recent instruction.
func (c *CPU) LastEvents() Events { return c.last }

// ICache and DCache expose the caches for the scan-chain map.
func (c *CPU) ICache() *Cache { return c.icache }

// DCache returns the data cache.
func (c *CPU) DCache() *Cache { return c.dcache }

// InPort returns input port p as seen by IOR.
func (c *CPU) InPort(p int) uint32 { return c.inPorts[p&15] }

// SetInPort sets input port p (environment simulator side).
func (c *CPU) SetInPort(p int, v uint32) { c.inPorts[p&15] = v }

// OutPort returns output port p written by IOW.
func (c *CPU) OutPort(p int) uint32 { return c.outPorts[p&15] }

// --- Host (test card) memory access: bypasses caches and ROM protection ---

// ReadWordHost reads a 32-bit word via the test-card port, without touching
// caches, buses or EDMs.
func (c *CPU) ReadWordHost(addr uint32) (uint32, error) {
	if addr%4 != 0 || addr > c.cfg.MemSize-4 {
		return 0, fmt.Errorf("host read at %#x out of range", addr)
	}
	return binary.LittleEndian.Uint32(c.mem[addr:]), nil
}

// WriteWordHost writes a 32-bit word via the test-card port. It may write
// the ROM region (that is how workloads are downloaded and how pre-runtime
// SWIFI injects faults into code).
func (c *CPU) WriteWordHost(addr, v uint32) error {
	if addr%4 != 0 || addr > c.cfg.MemSize-4 {
		return fmt.Errorf("host write at %#x out of range", addr)
	}
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	return nil
}

// ReadBytesHost copies length bytes starting at addr.
func (c *CPU) ReadBytesHost(addr, length uint32) ([]byte, error) {
	if addr+length > c.cfg.MemSize || addr+length < addr {
		return nil, fmt.Errorf("host read [%#x,%#x) out of range", addr, addr+length)
	}
	out := make([]byte, length)
	copy(out, c.mem[addr:addr+length])
	return out, nil
}

// WriteBytesHost copies data into memory starting at addr.
func (c *CPU) WriteBytesHost(addr uint32, data []byte) error {
	end := addr + uint32(len(data))
	if end > c.cfg.MemSize || end < addr {
		return fmt.Errorf("host write [%#x,%#x) out of range", addr, end)
	}
	copy(c.mem[addr:], data)
	return nil
}

// --- Execution ---

func (c *CPU) detect(mechanism string, code int32) Status {
	d := Detection{Mechanism: mechanism, Code: code, PC: c.PC, Cycle: c.cycles}
	c.detection = &d
	c.status = StatusDetected
	return c.status
}

// fetch reads the instruction word at PC through the instruction cache.
func (c *CPU) fetch() (uint32, bool) {
	if c.PC%4 != 0 || c.PC > c.cfg.ROMSize-4 {
		c.detect(EDMControlFlow, 0)
		return 0, false
	}
	c.AddrBus = c.PC
	c.CtrlBus = 0x1 // instruction fetch
	if data, hit, parityOK := c.icache.lookup(c.PC); hit {
		if !parityOK {
			c.detect(EDMICacheParity, 0)
			return 0, false
		}
		c.DataBus = data
		return data, true
	}
	data := binary.LittleEndian.Uint32(c.mem[c.PC:])
	c.icache.fill(c.PC, data)
	c.DataBus = data
	return data, true
}

// loadWord reads a data word through the data cache.
func (c *CPU) loadWord(addr uint32) (uint32, bool) {
	if addr%4 != 0 || addr > c.cfg.MemSize-4 {
		c.detect(EDMAccess, 0)
		return 0, false
	}
	c.MAR = addr
	c.AddrBus = addr
	c.CtrlBus = 0x2 // data read
	c.last.MemRead = true
	c.last.MemAddr = addr
	if c.uncached(addr) {
		data := binary.LittleEndian.Uint32(c.mem[addr:])
		c.MDR = data
		c.DataBus = data
		c.last.MemValue = data
		return data, true
	}
	if data, hit, parityOK := c.dcache.lookup(addr); hit {
		if !parityOK {
			c.detect(EDMDCacheParity, 0)
			return 0, false
		}
		c.MDR = data
		c.DataBus = data
		c.last.MemValue = data
		return data, true
	}
	data := binary.LittleEndian.Uint32(c.mem[addr:])
	c.dcache.fill(addr, data)
	c.MDR = data
	c.DataBus = data
	c.last.MemValue = data
	return data, true
}

// storeWord writes a data word (write-through, write-allocate).
func (c *CPU) storeWord(addr, v uint32) bool {
	if addr%4 != 0 || addr > c.cfg.MemSize-4 {
		c.detect(EDMAccess, 0)
		return false
	}
	if addr < c.cfg.ROMSize {
		c.detect(EDMROMWrite, 0)
		return false
	}
	c.MAR = addr
	c.MDR = v
	c.AddrBus = addr
	c.DataBus = v
	c.CtrlBus = 0x4 // data write
	c.last.MemWrite = true
	c.last.MemAddr = addr
	c.last.MemValue = v
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	if !c.uncached(addr) {
		c.dcache.fill(addr, v)
	}
	return true
}

// uncached reports whether addr lies in the memory-mapped I/O window.
func (c *CPU) uncached(addr uint32) bool {
	return c.cfg.IOEnd > c.cfg.IOBase && addr >= c.cfg.IOBase && addr < c.cfg.IOEnd
}

func (c *CPU) setZN(v uint32) {
	c.PSW &^= FlagZ | FlagN
	if v == 0 {
		c.PSW |= FlagZ
	}
	if v&(1<<31) != 0 {
		c.PSW |= FlagN
	}
}

func (c *CPU) setAddFlags(a, b, r uint32) {
	c.setZN(r)
	c.PSW &^= FlagC | FlagV
	if uint64(a)+uint64(b) > 0xFFFFFFFF {
		c.PSW |= FlagC
	}
	if (a^r)&(b^r)&(1<<31) != 0 {
		c.PSW |= FlagV
	}
}

func (c *CPU) setSubFlags(a, b, r uint32) {
	c.setZN(r)
	c.PSW &^= FlagC | FlagV
	if a < b {
		c.PSW |= FlagC // borrow
	}
	if (a^b)&(a^r)&(1<<31) != 0 {
		c.PSW |= FlagV
	}
}

func (c *CPU) branchCond(op Op) bool {
	z := c.PSW&FlagZ != 0
	n := c.PSW&FlagN != 0
	v := c.PSW&FlagV != 0
	switch op {
	case OpBEQ:
		return z
	case OpBNE:
		return !z
	case OpBLT:
		return n != v
	case OpBGE:
		return n == v
	case OpBGT:
		return !z && n == v
	case OpBLE:
		return z || n != v
	case OpBRA:
		return true
	default:
		return false
	}
}

// regUse computes the read and write register bitmasks of an instruction.
func regUse(in Instr) (read, written uint16) {
	bit := func(r uint8) uint16 { return 1 << r }
	switch in.Op {
	case OpMOV:
		return bit(in.Rs), bit(in.Rd)
	case OpLDI, OpLUI, OpIOR:
		return 0, bit(in.Rd)
	case OpADD, OpSUB, OpMUL, OpDIV, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpSAR:
		return bit(in.Rs) | bit(in.Rt), bit(in.Rd)
	case OpADDI, OpSUBI:
		return bit(in.Rs), bit(in.Rd)
	case OpCMP:
		return bit(in.Rd) | bit(in.Rs), 0
	case OpCMPI:
		return bit(in.Rd), 0
	case OpLD, OpLDB:
		return bit(in.Rs), bit(in.Rd)
	case OpST, OpSTB:
		return bit(in.Rd) | bit(in.Rs), 0
	case OpJAL:
		return 0, bit(RegLR)
	case OpJR:
		return bit(in.Rd), 0
	case OpPUSH:
		return bit(in.Rd) | bit(RegSP), bit(RegSP)
	case OpPOP:
		return bit(RegSP), bit(in.Rd) | bit(RegSP)
	case OpIOW:
		return bit(in.Rd), 0
	default:
		return 0, 0
	}
}

// Step executes one instruction and returns the resulting status.
func (c *CPU) Step() Status {
	if c.status != StatusRunning {
		return c.status
	}
	c.last = Events{}
	startPC := c.PC

	raw, ok := c.fetch()
	if !ok {
		return c.status
	}
	c.IR = raw
	// fetch succeeded, so PC is word-aligned and inside the ROM.
	d := &c.decoded[c.PC/4]
	if d.raw != raw {
		in, err := Decode(raw)
		if err != nil {
			return c.detect(EDMIllegalOpcode, 0)
		}
		read, written := regUse(in)
		*d = decodedWord{raw: raw, in: in, read: read, written: written}
	}
	in := d.in
	c.last.RegsRead, c.last.RegsWritten = d.read, d.written

	nextPC := c.PC + 4
	switch in.Op {
	case OpNOP:
	case OpHALT:
		c.status = StatusHalted
	case OpMOV:
		c.Regs[in.Rd] = c.Regs[in.Rs]
		c.setZN(c.Regs[in.Rd])
	case OpLDI:
		c.Regs[in.Rd] = uint32(in.Imm)
	case OpLUI:
		c.Regs[in.Rd] = uint32(in.Imm) << 12
	case OpADD:
		a, b := c.Regs[in.Rs], c.Regs[in.Rt]
		r := a + b
		c.Regs[in.Rd] = r
		c.setAddFlags(a, b, r)
	case OpSUB:
		a, b := c.Regs[in.Rs], c.Regs[in.Rt]
		r := a - b
		c.Regs[in.Rd] = r
		c.setSubFlags(a, b, r)
	case OpMUL:
		r := c.Regs[in.Rs] * c.Regs[in.Rt]
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpDIV:
		if c.Regs[in.Rt] == 0 {
			return c.detect(EDMDivZero, 0)
		}
		r := uint32(int32(c.Regs[in.Rs]) / int32(c.Regs[in.Rt]))
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpAND:
		r := c.Regs[in.Rs] & c.Regs[in.Rt]
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpOR:
		r := c.Regs[in.Rs] | c.Regs[in.Rt]
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpXOR:
		r := c.Regs[in.Rs] ^ c.Regs[in.Rt]
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpSHL:
		r := c.Regs[in.Rs] << (c.Regs[in.Rt] & 31)
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpSHR:
		r := c.Regs[in.Rs] >> (c.Regs[in.Rt] & 31)
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpSAR:
		r := uint32(int32(c.Regs[in.Rs]) >> (c.Regs[in.Rt] & 31))
		c.Regs[in.Rd] = r
		c.setZN(r)
	case OpADDI:
		a, b := c.Regs[in.Rs], uint32(in.Imm)
		r := a + b
		c.Regs[in.Rd] = r
		c.setAddFlags(a, b, r)
	case OpSUBI:
		a, b := c.Regs[in.Rs], uint32(in.Imm)
		r := a - b
		c.Regs[in.Rd] = r
		c.setSubFlags(a, b, r)
	case OpCMP:
		a, b := c.Regs[in.Rd], c.Regs[in.Rs]
		c.setSubFlags(a, b, a-b)
	case OpCMPI:
		a, b := c.Regs[in.Rd], uint32(in.Imm)
		c.setSubFlags(a, b, a-b)
	case OpLD:
		v, ok := c.loadWord(c.Regs[in.Rs] + uint32(in.Imm))
		if !ok {
			return c.status
		}
		c.Regs[in.Rd] = v
	case OpST:
		if !c.storeWord(c.Regs[in.Rs]+uint32(in.Imm), c.Regs[in.Rd]) {
			return c.status
		}
	case OpLDB:
		addr := c.Regs[in.Rs] + uint32(in.Imm)
		word, ok := c.loadWord(addr &^ 3)
		if !ok {
			return c.status
		}
		c.Regs[in.Rd] = (word >> ((addr & 3) * 8)) & 0xFF
	case OpSTB:
		addr := c.Regs[in.Rs] + uint32(in.Imm)
		word, ok := c.loadWord(addr &^ 3)
		if !ok {
			return c.status
		}
		shift := (addr & 3) * 8
		word = (word &^ (0xFF << shift)) | ((c.Regs[in.Rd] & 0xFF) << shift)
		if !c.storeWord(addr&^3, word) {
			return c.status
		}
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBGT, OpBLE, OpBRA:
		if c.branchCond(in.Op) {
			nextPC = uint32(int64(c.PC) + 4 + int64(in.Imm)*4)
			c.last.BranchTaken = true
		}
	case OpJAL:
		c.Regs[RegLR] = c.PC + 4
		nextPC = uint32(int64(c.PC) + 4 + int64(in.Imm)*4)
		c.last.Call = true
		c.last.BranchTaken = true
	case OpJR:
		nextPC = c.Regs[in.Rd]
		c.last.BranchTaken = true
	case OpPUSH:
		sp := c.Regs[RegSP] - 4
		if sp < c.cfg.StackLimit {
			return c.detect(EDMStackLimit, 0)
		}
		if !c.storeWord(sp, c.Regs[in.Rd]) {
			return c.status
		}
		c.Regs[RegSP] = sp
	case OpPOP:
		sp := c.Regs[RegSP]
		if sp+4 > c.cfg.StackBase {
			return c.detect(EDMStackLimit, 0)
		}
		v, ok := c.loadWord(sp)
		if !ok {
			return c.status
		}
		c.Regs[in.Rd] = v
		c.Regs[RegSP] = sp + 4
	case OpTRAP:
		return c.detect(EDMAssertion, in.Imm)
	case OpIOW:
		c.outPorts[uint32(in.Imm)&15] = c.Regs[in.Rd]
	case OpIOR:
		c.Regs[in.Rd] = c.inPorts[uint32(in.Imm)&15]
	case OpSYNC:
		c.iters++
		c.wdCounter = 0
		c.last.Sync = true
		if c.syncHook != nil {
			c.syncHook(c)
		}
	case OpYIELD:
		c.last.TaskSwitch = true
	default:
		return c.detect(EDMIllegalOpcode, 0)
	}

	c.cycles++
	c.wdCounter++
	if c.status == StatusRunning {
		c.PC = nextPC
		if c.cfg.WatchdogLimit > 0 && c.wdCounter > c.cfg.WatchdogLimit {
			c.detect(EDMWatchdog, 0)
		}
	}
	if c.traceHook != nil {
		c.traceHook(TraceRecord{Cycle: c.cycles - 1, PC: startPC, Raw: raw, Instr: in, Events: c.last})
	}
	return c.status
}

// Run executes until the CPU leaves StatusRunning or maxSteps instructions
// have executed, and returns the final status.
func (c *CPU) Run(maxSteps uint64) Status {
	for i := uint64(0); i < maxSteps; i++ {
		if c.Step() != StatusRunning {
			break
		}
	}
	return c.status
}
