package thor

import (
	"math/rand"
	"testing"
)

// newTestRand returns a seeded PRNG for reproducible randomised tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mustCPU builds a CPU with the default configuration.
func mustCPU(t *testing.T) *CPU {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// load assembles a sequence of instructions at address 0 and loads it.
func load(t *testing.T, c *CPU, ins ...Instr) {
	t.Helper()
	for i, in := range ins {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		if err := c.WriteWordHost(uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{MemSize: 10, ROMSize: 4, ICacheLines: 1, DCacheLines: 1, StackBase: 8, StackLimit: 4},
		{MemSize: 64, ROMSize: 0, ICacheLines: 1, DCacheLines: 1, StackBase: 64, StackLimit: 32},
		{MemSize: 64, ROMSize: 128, ICacheLines: 1, DCacheLines: 1, StackBase: 64, StackLimit: 32},
		{MemSize: 64, ROMSize: 32, ICacheLines: 0, DCacheLines: 1, StackBase: 64, StackLimit: 32},
		{MemSize: 64, ROMSize: 32, ICacheLines: 1, DCacheLines: 1, StackBase: 32, StackLimit: 32},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 7},
		Instr{Op: OpLDI, Rd: 2, Imm: 5},
		Instr{Op: OpADD, Rd: 3, Rs: 1, Rt: 2}, // 12
		Instr{Op: OpSUB, Rd: 4, Rs: 1, Rt: 2}, // 2
		Instr{Op: OpMUL, Rd: 5, Rs: 1, Rt: 2}, // 35
		Instr{Op: OpDIV, Rd: 6, Rs: 1, Rt: 2}, // 1
		Instr{Op: OpXOR, Rd: 7, Rs: 1, Rt: 1}, // 0, Z set
		Instr{Op: OpHALT},
	)
	if st := c.Run(100); st != StatusHalted {
		t.Fatalf("status = %v, detection=%v", st, c.Detection())
	}
	want := map[int]uint32{3: 12, 4: 2, 5: 35, 6: 1, 7: 0}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("R%d = %d, want %d", r, c.Regs[r], v)
		}
	}
	if c.PSW&FlagZ == 0 {
		t.Error("Z flag not set after XOR to zero")
	}
}

func TestSignedArithmeticFlags(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: -3},
		Instr{Op: OpLDI, Rd: 2, Imm: 4},
		Instr{Op: OpCMP, Rd: 1, Rs: 2}, // -3 - 4 = -7: N set, V clear
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if c.PSW&FlagN == 0 || c.PSW&FlagV != 0 {
		t.Fatalf("PSW = %08b after CMP -3,4", c.PSW)
	}
}

func TestShifts(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: -8},
		Instr{Op: OpLDI, Rd: 2, Imm: 1},
		Instr{Op: OpSHR, Rd: 3, Rs: 1, Rt: 2}, // logical
		Instr{Op: OpSAR, Rd: 4, Rs: 1, Rt: 2}, // arithmetic
		Instr{Op: OpSHL, Rd: 5, Rs: 2, Rt: 2},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if c.Regs[3] != 0x7FFFFFFC {
		t.Errorf("SHR = %#x", c.Regs[3])
	}
	if int32(c.Regs[4]) != -4 {
		t.Errorf("SAR = %d", int32(c.Regs[4]))
	}
	if c.Regs[5] != 2 {
		t.Errorf("SHL = %d", c.Regs[5])
	}
}

func TestLoadStoreWordAndByte(t *testing.T) {
	c := mustCPU(t)
	base := int32(0x8000)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: base},
		Instr{Op: OpLDI, Rd: 2, Imm: 0x1234},
		Instr{Op: OpST, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 3, Rs: 1, Imm: 0},
		Instr{Op: OpLDI, Rd: 4, Imm: 0xAB},
		Instr{Op: OpSTB, Rd: 4, Rs: 1, Imm: 1},
		Instr{Op: OpLDB, Rd: 5, Rs: 1, Imm: 1},
		Instr{Op: OpLD, Rd: 6, Rs: 1, Imm: 0},
		Instr{Op: OpHALT},
	)
	if st := c.Run(20); st != StatusHalted {
		t.Fatalf("status = %v (%v)", st, c.Detection())
	}
	if c.Regs[3] != 0x1234 {
		t.Errorf("LD = %#x", c.Regs[3])
	}
	if c.Regs[5] != 0xAB {
		t.Errorf("LDB = %#x", c.Regs[5])
	}
	if c.Regs[6] != 0xAB34 {
		t.Errorf("word after STB = %#x", c.Regs[6])
	}
}

func TestBranches(t *testing.T) {
	c := mustCPU(t)
	// Count down from 3; loop body increments R2.
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 3},
		Instr{Op: OpLDI, Rd: 2, Imm: 0},
		// loop: (pc=8)
		Instr{Op: OpCMPI, Rd: 1, Imm: 0},
		Instr{Op: OpBEQ, Imm: 3}, // -> halt at pc=24
		Instr{Op: OpADDI, Rd: 2, Rs: 2, Imm: 1},
		Instr{Op: OpSUBI, Rd: 1, Rs: 1, Imm: 1},
		Instr{Op: OpBRA, Imm: -5}, // -> loop
		Instr{Op: OpHALT},
	)
	if st := c.Run(100); st != StatusHalted {
		t.Fatalf("status = %v (%v)", st, c.Detection())
	}
	if c.Regs[2] != 3 {
		t.Fatalf("loop executed %d times", c.Regs[2])
	}
}

func TestCallReturnAndStack(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 10},
		Instr{Op: OpJAL, Imm: 2}, // call func at pc=16
		Instr{Op: OpHALT},        // pc=8
		Instr{Op: OpNOP},         // pc=12
		Instr{Op: OpPUSH, Rd: 1}, // func: pc=16
		Instr{Op: OpADDI, Rd: 1, Rs: 1, Imm: 5},
		Instr{Op: OpPOP, Rd: 2},
		Instr{Op: OpJR, Rd: RegLR},
	)
	if st := c.Run(20); st != StatusHalted {
		t.Fatalf("status = %v (%v)", st, c.Detection())
	}
	if c.Regs[1] != 15 || c.Regs[2] != 10 {
		t.Fatalf("R1=%d R2=%d", c.Regs[1], c.Regs[2])
	}
	if c.Regs[RegSP] != c.Config().StackBase {
		t.Fatalf("SP = %#x", c.Regs[RegSP])
	}
}

func TestEDMDivZero(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpLDI, Rd: 2, Imm: 0},
		Instr{Op: OpDIV, Rd: 3, Rs: 1, Rt: 2},
	)
	if st := c.Run(10); st != StatusDetected {
		t.Fatalf("status = %v", st)
	}
	if d := c.Detection(); d == nil || d.Mechanism != EDMDivZero {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMIllegalOpcode(t *testing.T) {
	c := mustCPU(t)
	if err := c.WriteWordHost(0, 0xEE000000); err != nil {
		t.Fatal(err)
	}
	c.Run(1)
	if d := c.Detection(); d == nil || d.Mechanism != EDMIllegalOpcode {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMAccessViolation(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 2}, // unaligned
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
	)
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMAccess {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMAccessOutOfRange(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLUI, Rd: 1, Imm: 0x40}, // 0x40000 > 64K
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
	)
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMAccess {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMROMWrite(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x100},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0}, // store into ROM
	)
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMROMWrite {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMControlFlow(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x9000}, // outside ROM
		Instr{Op: OpJR, Rd: 1},
	)
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMControlFlow {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMStackLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StackLimit = cfg.StackBase - 8 // room for 2 words
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(t, c,
		Instr{Op: OpPUSH, Rd: 0},
		Instr{Op: OpPUSH, Rd: 0},
		Instr{Op: OpPUSH, Rd: 0}, // overflow
	)
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMStackLimit {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMStackUnderflow(t *testing.T) {
	c := mustCPU(t)
	load(t, c, Instr{Op: OpPOP, Rd: 1})
	c.Run(10)
	if d := c.Detection(); d == nil || d.Mechanism != EDMStackLimit {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestEDMAssertionTrap(t *testing.T) {
	c := mustCPU(t)
	load(t, c, Instr{Op: OpTRAP, Imm: 99})
	c.Run(10)
	d := c.Detection()
	if d == nil || d.Mechanism != EDMAssertion || d.Code != 99 {
		t.Fatalf("detection = %v", d)
	}
}

func TestEDMWatchdog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogLimit = 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Infinite loop with no SYNC.
	load(t, c, Instr{Op: OpBRA, Imm: -1})
	c.Run(100)
	if d := c.Detection(); d == nil || d.Mechanism != EDMWatchdog {
		t.Fatalf("detection = %v", c.Detection())
	}
	// With SYNC in the loop, the watchdog stays quiet.
	c2, _ := New(cfg)
	load(t, c2, Instr{Op: OpSYNC}, Instr{Op: OpBRA, Imm: -2})
	if st := c2.Run(100); st != StatusRunning {
		t.Fatalf("status = %v (%v)", st, c2.Detection())
	}
}

func TestSyncHookAndIterations(t *testing.T) {
	c := mustCPU(t)
	var calls int
	c.SetSyncHook(func(cc *CPU) { calls++ })
	load(t, c,
		Instr{Op: OpSYNC},
		Instr{Op: OpSYNC},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if calls != 2 || c.Iterations() != 2 {
		t.Fatalf("calls=%d iterations=%d", calls, c.Iterations())
	}
}

func TestIOPorts(t *testing.T) {
	c := mustCPU(t)
	c.SetInPort(3, 77)
	load(t, c,
		Instr{Op: OpIOR, Rd: 1, Imm: 3},
		Instr{Op: OpIOW, Rd: 1, Imm: 5},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if c.Regs[1] != 77 || c.OutPort(5) != 77 {
		t.Fatalf("R1=%d out5=%d", c.Regs[1], c.OutPort(5))
	}
}

func TestTraceHook(t *testing.T) {
	c := mustCPU(t)
	var recs []TraceRecord
	c.SetTraceHook(func(r TraceRecord) { recs = append(recs, r) })
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpADDI, Rd: 1, Rs: 1, Imm: 2},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if len(recs) != 3 {
		t.Fatalf("trace records = %d", len(recs))
	}
	if recs[0].PC != 0 || recs[1].PC != 4 || recs[1].Instr.Op != OpADDI {
		t.Fatalf("recs = %+v", recs)
	}
	if recs[1].Events.RegsRead != 1<<1 || recs[1].Events.RegsWritten != 1<<1 {
		t.Fatalf("reg masks = %+v", recs[1].Events)
	}
}

func TestEventsMemoryAndBranch(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0},
		Instr{Op: OpBRA, Imm: 0},
		Instr{Op: OpJAL, Imm: 0},
		Instr{Op: OpYIELD},
		Instr{Op: OpHALT},
	)
	c.Step()
	c.Step()
	ev := c.LastEvents()
	if !ev.MemWrite || ev.MemAddr != 0x8000 || ev.MemValue != 0x8000 {
		t.Fatalf("store events = %+v", ev)
	}
	c.Step()
	if !c.LastEvents().BranchTaken {
		t.Fatal("branch event missing")
	}
	c.Step()
	ev = c.LastEvents()
	if !ev.Call || !ev.BranchTaken {
		t.Fatalf("call events = %+v", ev)
	}
	c.Step()
	if !c.LastEvents().TaskSwitch {
		t.Fatal("task switch event missing")
	}
}

func TestHostAccessBounds(t *testing.T) {
	c := mustCPU(t)
	if _, err := c.ReadWordHost(c.Config().MemSize); err == nil {
		t.Error("read past end should fail")
	}
	if err := c.WriteWordHost(2, 1); err == nil {
		t.Error("unaligned host write should fail")
	}
	if _, err := c.ReadBytesHost(c.Config().MemSize-2, 4); err == nil {
		t.Error("byte read past end should fail")
	}
	if err := c.WriteBytesHost(c.Config().MemSize-2, []byte{1, 2, 3, 4}); err == nil {
		t.Error("byte write past end should fail")
	}
}

func TestResetPreservesMemory(t *testing.T) {
	c := mustCPU(t)
	load(t, c, Instr{Op: OpLDI, Rd: 1, Imm: 42}, Instr{Op: OpHALT})
	c.Run(10)
	c.Reset()
	if c.Status() != StatusRunning || c.PC != 0 || c.Regs[1] != 0 {
		t.Fatal("reset incomplete")
	}
	if c.Regs[RegSP] != c.Config().StackBase {
		t.Fatalf("SP = %#x", c.Regs[RegSP])
	}
	// Program still loaded.
	if st := c.Run(10); st != StatusHalted || c.Regs[1] != 42 {
		t.Fatalf("after reset: %v R1=%d", st, c.Regs[1])
	}
}

func TestStepAfterHaltIsNoOp(t *testing.T) {
	c := mustCPU(t)
	load(t, c, Instr{Op: OpHALT})
	c.Run(10)
	cycles := c.Cycles()
	if st := c.Step(); st != StatusHalted || c.Cycles() != cycles {
		t.Fatal("step after halt must not execute")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, [NumRegs]uint32) {
		c := mustCPU(t)
		load(t, c,
			Instr{Op: OpLDI, Rd: 1, Imm: 1000},
			Instr{Op: OpADDI, Rd: 2, Rs: 2, Imm: 3},
			Instr{Op: OpSUBI, Rd: 1, Rs: 1, Imm: 1},
			Instr{Op: OpCMPI, Rd: 1, Imm: 0},
			Instr{Op: OpBNE, Imm: -4},
			Instr{Op: OpHALT},
		)
		c.Run(100000)
		return c.Cycles(), c.Regs
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatal("execution is not deterministic")
	}
}

func TestICacheParityDetection(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpBRA, Imm: -2}, // tight loop keeps lines hot
	)
	c.Run(4) // warm the I-cache
	// Flip a data bit in the cached line for PC=0.
	idx, _ := c.icache.index(0)
	c.icache.lines[idx].data ^= 1 << 5
	st := c.Run(4)
	if st != StatusDetected {
		t.Fatalf("status = %v", st)
	}
	if d := c.Detection(); d.Mechanism != EDMICacheParity {
		t.Fatalf("detection = %v", d)
	}
}

func TestDCacheParityDetection(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 3, Rs: 1, Imm: 0},
		Instr{Op: OpHALT},
	)
	c.Step()
	c.Step() // store fills the D-cache line
	idx, _ := c.dcache.index(0x8000)
	c.dcache.lines[idx].data ^= 1 << 9
	c.Step() // the next load hits the corrupted line
	if d := c.Detection(); d == nil || d.Mechanism != EDMDCacheParity {
		t.Fatalf("detection = %v", c.Detection())
	}
}

func TestCacheTagFlipCausesMissNotFalseHit(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpHALT},
	)
	c.Step()
	c.Step()
	idx, _ := c.dcache.index(0x8000)
	c.dcache.lines[idx].tag ^= 1 // tag no longer matches -> miss, refill
	if st := c.Run(10); st != StatusHalted {
		t.Fatalf("status = %v (%v)", st, c.Detection())
	}
	if c.Regs[2] != 0x8000 {
		t.Fatalf("R2 = %#x", c.Regs[2])
	}
}

func TestCacheStats(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 3, Rs: 1, Imm: 0},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	hits, misses := c.DCache().Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("dcache hits=%d misses=%d", hits, misses)
	}
	if c.DCache().Lines() != DefaultConfig().DCacheLines {
		t.Fatal("Lines() mismatch")
	}
}

func TestUncachedIOWindow(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x7000},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0}, // read IO word (0)
		Instr{Op: OpLD, Rd: 3, Rs: 1, Imm: 0}, // read again after host write
		Instr{Op: OpHALT},
	)
	c.Step()
	c.Step()
	if c.Regs[2] != 0 {
		t.Fatalf("initial IO read = %d", c.Regs[2])
	}
	// Host writes the IO word between the two loads; the second load must
	// see it because the window is uncached.
	if err := c.WriteWordHost(0x7000, 1234); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	if c.Regs[3] != 1234 {
		t.Fatalf("IO read after host write = %d", c.Regs[3])
	}
	// IO accesses must not populate the data cache.
	hits, misses := c.DCache().Stats()
	if hits != 0 || misses != 0 {
		t.Fatalf("dcache touched by IO: hits=%d misses=%d", hits, misses)
	}
}

func TestCachedRegionMasksHostWrite(t *testing.T) {
	// Outside the IO window, a cached line legitimately masks a later host
	// write until the line is evicted — the behaviour runtime SWIFI on a
	// write-through cache system really exhibits.
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x4000},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 3, Rs: 1, Imm: 0},
		Instr{Op: OpHALT},
	)
	c.Step()
	c.Step()
	if err := c.WriteWordHost(0x4000, 555); err != nil {
		t.Fatal(err)
	}
	c.Run(10)
	if c.Regs[3] != 0 {
		t.Fatalf("cached read = %d, expected stale 0", c.Regs[3])
	}
}

// TestRandomProgramsNeverPanic executes long streams of random but valid
// instructions and checks the simulator only ever stops through a defined
// status — a fuzz-style robustness property for the fault injector's
// substrate (injected faults routinely create wild programs).
func TestRandomProgramsNeverPanic(t *testing.T) {
	rng := newTestRand(99)
	ops := make([]Op, 0, len(validOps))
	for op := range validOps {
		ops = append(ops, op)
	}
	// Deterministic op order for reproducibility across map iteration.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j-1] > ops[j]; j-- {
			ops[j-1], ops[j] = ops[j], ops[j-1]
		}
	}
	for trial := 0; trial < 50; trial++ {
		c := mustCPU(t)
		nWords := 256
		for i := 0; i < nWords; i++ {
			in := Instr{Op: ops[rng.Intn(len(ops))], Rd: uint8(rng.Intn(NumRegs))}
			if formatI(in.Op) {
				in.Imm = int32(rng.Intn(imm20Max-imm20Min+1) + imm20Min)
			} else {
				in.Rs = uint8(rng.Intn(NumRegs))
				in.Rt = uint8(rng.Intn(NumRegs))
				in.Imm = int32(rng.Intn(imm12Max-imm12Min+1) + imm12Min)
			}
			w, err := Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteWordHost(uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Run(20000)
		switch st {
		case StatusRunning, StatusHalted, StatusDetected:
		default:
			t.Fatalf("trial %d: bad status %v", trial, st)
		}
		if st == StatusDetected && c.Detection() == nil {
			t.Fatalf("trial %d: detected without detection record", trial)
		}
	}
}

// TestRandomProgramsDeterministic re-runs a random program and requires
// byte-identical final state.
func TestRandomProgramsDeterministic(t *testing.T) {
	build := func(seed int64) *CPU {
		rng := newTestRand(seed)
		c := mustCPU(t)
		for i := 0; i < 200; i++ {
			in := Instr{Op: OpADDI, Rd: uint8(rng.Intn(NumRegs)), Rs: uint8(rng.Intn(NumRegs)),
				Imm: int32(rng.Intn(100))}
			if i%7 == 0 {
				in = Instr{Op: OpST, Rd: uint8(rng.Intn(NumRegs)), Rs: 0, Imm: int32(0x7F0)}
				// Stores at [R0+0x7F0] hit ROM -> some runs detect early.
			}
			w, _ := Encode(in)
			if err := c.WriteWordHost(uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(5000)
		return c
	}
	for seed := int64(0); seed < 10; seed++ {
		a, b := build(seed), build(seed)
		if a.Regs != b.Regs || a.PC != b.PC || a.Cycles() != b.Cycles() || a.Status() != b.Status() {
			t.Fatalf("seed %d: nondeterministic execution", seed)
		}
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpADDI, Rd: 3, Rs: 3, Imm: 1},
		Instr{Op: OpBRA, Imm: -2},
	)
	c.Run(10) // past the store, mid-loop; caches warm
	cp := c.Checkpoint()
	snapshotCycles := c.Cycles()
	snapshotR3 := c.Regs[3]

	c.Run(100) // diverge
	if c.Cycles() == snapshotCycles {
		t.Fatal("CPU did not advance")
	}
	// Corrupt state that Restore must repair, including memory and caches.
	c.Regs[3] = 0xFFFF
	if err := c.WriteWordHost(0x8000, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if c.Cycles() != snapshotCycles || c.Regs[3] != snapshotR3 {
		t.Fatalf("restore incomplete: cycles=%d R3=%d", c.Cycles(), c.Regs[3])
	}
	v, _ := c.ReadWordHost(0x8000)
	if v != 0x8000 {
		t.Fatalf("memory not restored: %#x", v)
	}
	// Continuation after restore is deterministic: run both and compare.
	c2 := mustCPU(t)
	load(t, c2,
		Instr{Op: OpLDI, Rd: 1, Imm: 0x8000},
		Instr{Op: OpST, Rd: 1, Rs: 1, Imm: 0},
		Instr{Op: OpLD, Rd: 2, Rs: 1, Imm: 0},
		Instr{Op: OpADDI, Rd: 3, Rs: 3, Imm: 1},
		Instr{Op: OpBRA, Imm: -2},
	)
	c2.Run(10)
	c.Run(50)
	c2.Run(50)
	if c.Regs != c2.Regs || c.Cycles() != c2.Cycles() || c.PC != c2.PC {
		t.Fatal("restored continuation diverged from straight run")
	}
}

func TestCheckpointRestoreErrors(t *testing.T) {
	c := mustCPU(t)
	if err := c.Restore(nil); err == nil {
		t.Fatal("nil checkpoint should fail")
	}
	cfg := DefaultConfig()
	cfg.MemSize = 32 * 1024
	cfg.StackBase = 32 * 1024
	cfg.StackLimit = 28 * 1024
	small, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(c.Checkpoint()); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestCheckpointCapturesDetection(t *testing.T) {
	c := mustCPU(t)
	load(t, c, Instr{Op: OpTRAP, Imm: 7})
	c.Run(5)
	cp := c.Checkpoint()
	c.Reset()
	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if c.Status() != StatusDetected || c.Detection() == nil || c.Detection().Code != 7 {
		t.Fatalf("detection not restored: %v %v", c.Status(), c.Detection())
	}
}

func TestAddSubCarryOverflowFlags(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		// 0x7FFFFFFF + 1: signed overflow, no carry.
		Instr{Op: OpLUI, Rd: 1, Imm: 0x7FFFF}, // 0x7FFFF000
		Instr{Op: OpLDI, Rd: 4, Imm: 0xFFF},
		Instr{Op: OpOR, Rd: 1, Rs: 1, Rt: 4}, // 0x7FFFFFFF
		Instr{Op: OpLDI, Rd: 2, Imm: 1},
		Instr{Op: OpADD, Rd: 3, Rs: 1, Rt: 2},
		Instr{Op: OpHALT},
	)
	c.Run(10)
	if c.PSW&FlagV == 0 {
		t.Fatalf("V not set on signed overflow: PSW=%04b", c.PSW)
	}
	if c.PSW&FlagC != 0 {
		t.Fatalf("C set without unsigned carry: PSW=%04b", c.PSW)
	}
	if c.PSW&FlagN == 0 {
		t.Fatalf("N not set on negative result: PSW=%04b", c.PSW)
	}

	// 0xFFFFFFFF + 1: carry, no signed overflow, zero result.
	c2 := mustCPU(t)
	load(t, c2,
		Instr{Op: OpLDI, Rd: 1, Imm: -1},
		Instr{Op: OpLDI, Rd: 2, Imm: 1},
		Instr{Op: OpADD, Rd: 3, Rs: 1, Rt: 2},
		Instr{Op: OpHALT},
	)
	c2.Run(10)
	if c2.PSW&FlagC == 0 || c2.PSW&FlagV != 0 || c2.PSW&FlagZ == 0 {
		t.Fatalf("flags = %04b", c2.PSW)
	}

	// 1 - 2: borrow sets C, N set.
	c3 := mustCPU(t)
	load(t, c3,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpLDI, Rd: 2, Imm: 2},
		Instr{Op: OpSUB, Rd: 3, Rs: 1, Rt: 2},
		Instr{Op: OpHALT},
	)
	c3.Run(10)
	if c3.PSW&FlagC == 0 || c3.PSW&FlagN == 0 {
		t.Fatalf("flags = %04b", c3.PSW)
	}
}

func TestBranchConditionMatrix(t *testing.T) {
	// For each (a, b) pair, check every conditional branch takes exactly
	// when the signed relation holds.
	rel := map[Op]func(a, b int32) bool{
		OpBEQ: func(a, b int32) bool { return a == b },
		OpBNE: func(a, b int32) bool { return a != b },
		OpBLT: func(a, b int32) bool { return a < b },
		OpBGE: func(a, b int32) bool { return a >= b },
		OpBGT: func(a, b int32) bool { return a > b },
		OpBLE: func(a, b int32) bool { return a <= b },
	}
	pairs := [][2]int32{
		{0, 0}, {1, 2}, {2, 1}, {-1, 1}, {1, -1}, {-5, -5}, {-7, -2},
	}
	for op, want := range rel {
		for _, p := range pairs {
			c := mustCPU(t)
			load(t, c,
				Instr{Op: OpLDI, Rd: 1, Imm: p[0]},
				Instr{Op: OpLDI, Rd: 2, Imm: p[1]},
				Instr{Op: OpCMP, Rd: 1, Rs: 2},
				Instr{Op: op, Imm: 1},            // skip the marker when taken
				Instr{Op: OpLDI, Rd: 3, Imm: 99}, // marker: branch NOT taken
				Instr{Op: OpHALT},
			)
			if st := c.Run(10); st != StatusHalted {
				t.Fatalf("%v %v: status %v", op, p, st)
			}
			taken := c.Regs[3] != 99
			if taken != want(p[0], p[1]) {
				t.Errorf("%v with (%d, %d): taken=%v", op, p[0], p[1], taken)
			}
		}
	}
}
