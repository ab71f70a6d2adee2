package thor

import (
	"encoding/binary"
	"testing"
)

// TestPredecodeICacheDoubleFlip flips a data bit and the parity bit of a hot
// I-cache line, so parity still passes: the corrupted word must execute
// silently, not the decode cached for that PC.
func TestPredecodeICacheDoubleFlip(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpBRA, Imm: -2},
	)
	c.Run(4) // two loop iterations: PC 0 is cached and predecoded
	if c.PC != 0 || c.Regs[1] != 1 {
		t.Fatalf("warm-up: PC=%#x R1=%d", c.PC, c.Regs[1])
	}
	idx, _ := c.icache.index(0)
	c.icache.lines[idx].data ^= 1 << 1 // imm 1 -> 3
	c.icache.lines[idx].parity ^= 1
	if st := c.Step(); st != StatusRunning {
		t.Fatalf("status = %v, detection = %v", st, c.Detection())
	}
	if c.Regs[1] != 3 {
		t.Fatalf("R1 = %d, want 3 from the flipped word", c.Regs[1])
	}
}

// TestPredecodeROMRewrite rewrites an executed ROM word through the host
// port (the pre-runtime SWIFI path); after Reset the new word must execute.
func TestPredecodeROMRewrite(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpHALT},
	)
	if st := c.Run(10); st != StatusHalted || c.Regs[1] != 1 {
		t.Fatalf("first run: status %v, R1 = %d", st, c.Regs[1])
	}
	load(t, c, Instr{Op: OpLDI, Rd: 1, Imm: 5}) // host write over word 0
	c.Reset()
	if st := c.Run(10); st != StatusHalted || c.Regs[1] != 5 {
		t.Fatalf("after rewrite: status %v, R1 = %d, want 5", st, c.Regs[1])
	}
}

// TestPredecodeRestoreAfterCorruption executes a corrupted code word, then
// restores a checkpoint taken before the corruption: the checkpoint's word
// must execute again.
func TestPredecodeRestoreAfterCorruption(t *testing.T) {
	c := mustCPU(t)
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: 1},
		Instr{Op: OpBRA, Imm: -2},
	)
	c.Run(2)
	cp := c.Checkpoint() // PC 0, original word in memory and I-cache
	load(t, c, Instr{Op: OpLDI, Rd: 1, Imm: 9})
	c.Reset() // cold I-cache: the next fetch reads the corrupted word
	c.Step()
	if c.Regs[1] != 9 {
		t.Fatalf("corrupted word: R1 = %d, want 9", c.Regs[1])
	}
	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	c.Step()
	if c.Regs[1] != 1 {
		t.Fatalf("after restore: R1 = %d, want 1", c.Regs[1])
	}
}

// TestPredecodeZeroEntry pins why a new table needs no fill: its zero entry
// is already the decode of word 0.
func TestPredecodeZeroEntry(t *testing.T) {
	in, err := Decode(0)
	if err != nil || in != (Instr{}) {
		t.Fatalf("Decode(0) = %+v, %v; want the zero Instr", in, err)
	}
	if read, written := regUse(Instr{}); read != 0 || written != 0 {
		t.Fatalf("regUse(Instr{}) = %#x, %#x; want 0, 0", read, written)
	}
}

// Schedule actions of FuzzStepDecode: the low two bits of a schedule byte
// pick the action, the high six its argument.
const (
	schedStep    = iota // step up to arg+1 instructions
	schedRewrite        // host-write the next 4 bytes into ROM word arg
	schedFlip           // flip a data bit and the parity bit of I-cache line arg
	schedReset          // Reset, then start at ROM word arg
)

// seedSchedule performs every action at least once.
func seedSchedule() []byte {
	step := byte(63<<2 | schedStep)
	s := []byte{step, 0<<2 | schedRewrite}
	s = binary.LittleEndian.AppendUint32(s, 0x03100003) // LDI R1, 3
	s = append(s, step, 0<<2|schedFlip, 1, step, 1<<2|schedFlip, 17, step,
		2<<2|schedReset, step, 0<<2|schedReset, step)
	return s
}

// FuzzStepDecode runs fuzz-chosen ROM words under a schedule of host
// rewrites, parity-preserving I-cache flips and Resets. On every executed
// instruction the trace record must carry Decode of the fetched word and
// regUse of that decode, and an illegal-opcode detection must mean the
// fetched word does not decode: the predecode table may never serve a stale
// entry.
func FuzzStepDecode(f *testing.F) {
	corpus := decodeCorpus()
	for i := 0; i < len(corpus); i += 64 {
		var rom []byte
		for _, w := range corpus[i:min(i+64, len(corpus))] {
			rom = binary.LittleEndian.AppendUint32(rom, w)
		}
		f.Add(rom, seedSchedule())
	}
	f.Fuzz(func(t *testing.T, rom, schedule []byte) {
		c := mustCPU(t)
		words := min(len(rom)/4, 256)
		for i := 0; i < words; i++ {
			if err := c.WriteWordHost(uint32(4*i), binary.LittleEndian.Uint32(rom[4*i:])); err != nil {
				t.Fatal(err)
			}
		}
		nWords := max(words, 1)
		c.SetTraceHook(func(rec TraceRecord) {
			want, err := Decode(rec.Raw)
			if err != nil || rec.Instr != want {
				t.Fatalf("pc %#x: executed %+v for word %#08x; Decode gives %+v, %v", rec.PC, rec.Instr, rec.Raw, want, err)
			}
			read, written := regUse(want)
			if rec.Events.RegsRead != read || rec.Events.RegsWritten != written {
				t.Fatalf("pc %#x: masks %#x/%#x for %v; regUse gives %#x/%#x", rec.PC,
					rec.Events.RegsRead, rec.Events.RegsWritten, want, read, written)
			}
		})
		restart := func(arg int) {
			c.Reset()
			c.PC = uint32(4 * (arg % nWords))
		}
		for i := 0; i < len(schedule); i++ {
			arg := int(schedule[i] >> 2)
			switch schedule[i] & 3 {
			case schedStep:
				for n := 0; n <= arg; n++ {
					if c.Step() != StatusRunning {
						if d := c.Detection(); d != nil && d.Mechanism == EDMIllegalOpcode {
							if _, err := Decode(c.IR); err == nil {
								t.Fatalf("pc %#x: illegal-opcode detection on decodable word %#08x", d.PC, c.IR)
							}
						}
						restart(arg)
						break
					}
				}
			case schedRewrite:
				if i+4 >= len(schedule) {
					return
				}
				if err := c.WriteWordHost(uint32(4*(arg%nWords)), binary.LittleEndian.Uint32(schedule[i+1:])); err != nil {
					t.Fatal(err)
				}
				i += 4
			case schedFlip:
				if i+1 >= len(schedule) {
					return
				}
				ln := &c.icache.lines[arg%len(c.icache.lines)]
				ln.data ^= 1 << (schedule[i+1] & 31)
				ln.parity ^= 1
				i++
			case schedReset:
				restart(arg)
			}
		}
	})
}
