package thor

import (
	"bytes"
	"reflect"
	"testing"
)

// memoryLoop is a program that keeps mutating memory: it walks a store
// pointer through RAM while counting down, so every few cycles another page
// of the image diverges from the reset state.
func memoryLoop(t *testing.T, c *CPU, rounds int32) {
	t.Helper()
	load(t, c,
		Instr{Op: OpLDI, Rd: 1, Imm: rounds}, // counter
		Instr{Op: OpLDI, Rd: 2, Imm: 0x8000}, // store pointer
		Instr{Op: OpLDI, Rd: 3, Imm: 0},      // running value
		// loop: (pc=12)
		Instr{Op: OpST, Rd: 3, Rs: 2, Imm: 0},
		Instr{Op: OpADDI, Rd: 3, Rs: 3, Imm: 7},
		Instr{Op: OpADDI, Rd: 2, Rs: 2, Imm: 4},
		Instr{Op: OpSUBI, Rd: 1, Rs: 1, Imm: 1},
		Instr{Op: OpCMPI, Rd: 1, Imm: 0},
		Instr{Op: OpBNE, Imm: -6},
		Instr{Op: OpHALT},
	)
}

// runToCycle steps the CPU until it reaches at least the given cycle count.
func runToCycle(t *testing.T, c *CPU, cycle uint64) {
	t.Helper()
	for c.Cycles() < cycle {
		if c.Step() != StatusRunning {
			t.Fatalf("stopped at cycle %d before reaching %d (%v)", c.Cycles(), cycle, c.Detection())
		}
	}
}

// TestCheckpointDeltaRoundTrip pins the byte-identity of delta restores: a
// delta checkpoint must restore exactly the state a full checkpoint taken at
// the same instant restores.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	c := mustCPU(t)
	memoryLoop(t, c, 2000)

	runToCycle(t, c, 500)
	golden := c.Checkpoint()

	runToCycle(t, c, 2500)
	full := c.Checkpoint()
	delta, err := c.CheckpointDelta(golden)
	if err != nil {
		t.Fatal(err)
	}
	if delta.mem != nil || delta.base == nil {
		t.Fatal("CheckpointDelta did not produce a delta-form checkpoint")
	}
	if len(delta.delta) == 0 {
		t.Fatal("workload mutated memory but the delta has no pages")
	}
	if delta.Bytes() >= full.Bytes() {
		t.Errorf("delta footprint %d not smaller than full footprint %d", delta.Bytes(), full.Bytes())
	}

	// Diverge, then restore via the delta and via the full copy; the two
	// restored states must be identical.
	runToCycle(t, c, 4000)
	if err := c.Restore(delta); err != nil {
		t.Fatal(err)
	}
	fromDelta := c.Checkpoint()
	if err := c.Restore(full); err != nil {
		t.Fatal(err)
	}
	fromFull := c.Checkpoint()
	if !reflect.DeepEqual(fromDelta, fromFull) {
		t.Fatal("delta restore and full restore disagree")
	}
	if !bytes.Equal(fromDelta.mem, full.mem) {
		t.Fatal("restored memory image is not byte-identical")
	}
}

// TestCheckpointDeterminism pins the forking engine's core assumption:
// running to cycle N, checkpointing, and resuming from the checkpoint yields
// exactly the state of an uninterrupted run.
func TestCheckpointDeterminism(t *testing.T) {
	fresh := func() *CPU {
		c := mustCPU(t)
		memoryLoop(t, c, 1500)
		return c
	}

	ref := fresh()
	if st := ref.Run(100000); st != StatusHalted {
		t.Fatalf("reference run: %v (%v)", st, ref.Detection())
	}
	want := ref.Checkpoint()

	c := fresh()
	runToCycle(t, c, 3000)
	cp := c.Checkpoint()
	if st := c.Run(100000); st != StatusHalted {
		t.Fatalf("first leg: %v (%v)", st, c.Detection())
	}
	if !reflect.DeepEqual(c.Checkpoint(), want) {
		t.Fatal("interrupted run diverged from uninterrupted run")
	}

	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if c.Cycles() != 3000 {
		t.Fatalf("restored cycle count = %d, want 3000", c.Cycles())
	}
	if st := c.Run(100000); st != StatusHalted {
		t.Fatalf("resumed leg: %v (%v)", st, c.Detection())
	}
	if !reflect.DeepEqual(c.Checkpoint(), want) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

// TestCheckpointDeltaShapeChecks covers the error paths.
func TestCheckpointDeltaShapeChecks(t *testing.T) {
	c := mustCPU(t)
	if _, err := c.CheckpointDelta(nil); err == nil {
		t.Error("nil golden accepted")
	}
	golden := c.Checkpoint()
	delta, err := c.CheckpointDelta(golden)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckpointDelta(delta); err == nil {
		t.Error("delta-form golden accepted")
	}
	small, err := New(Config{MemSize: 4096, ROMSize: 1024, ICacheLines: 8,
		DCacheLines: 8, StackBase: 4096, StackLimit: 3072})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.CheckpointDelta(golden); err == nil {
		t.Error("golden with mismatched memory size accepted")
	}
	if err := small.Restore(delta); err == nil {
		t.Error("restore of mismatched delta checkpoint accepted")
	}
}

// FuzzCheckpointDelta checks the page-delta encoding over arbitrary image
// pairs: diffPages(base, mem) must emit exactly the pages where the images
// differ, in ascending order, and applying it onto a copy of base must
// reproduce mem.
func FuzzCheckpointDelta(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{9})
	f.Add(bytes.Repeat([]byte{0xAA}, 3*ckptPageSize+17), bytes.Repeat([]byte{0x55}, 100))
	// An image ending in a 20-byte page, overwritten in its last 4 bytes.
	f.Add(bytes.Repeat([]byte{0x11}, 3*ckptPageSize+20), append([]byte{255}, bytes.Repeat([]byte{0x22}, 20)...))
	f.Fuzz(func(t *testing.T, base, tail []byte) {
		// Build mem as base with the fuzzer's tail spliced in at a
		// tail-derived offset, so images agree on most pages and differ on a
		// few — the shape the engine produces.
		mem := append([]byte(nil), base...)
		if len(mem) > 0 && len(tail) > 0 {
			off := int(tail[0]) * len(mem) / 256
			copy(mem[off:], tail)
		}
		pages := diffPages(base, mem)
		got := append([]byte(nil), base...)
		applyDelta(got, pages)
		if !bytes.Equal(got, mem) {
			t.Fatalf("delta round-trip mismatch: base=%d bytes, %d pages", len(base), len(pages))
		}
		// Exactness: a page is emitted if and only if it differs.
		emitted := make(map[int]bool, len(pages))
		for i, p := range pages {
			if i > 0 && p.index <= pages[i-1].index {
				t.Fatalf("page %d emitted after page %d", p.index, pages[i-1].index)
			}
			emitted[p.index] = true
		}
		for off := 0; off < len(mem); off += ckptPageSize {
			end := min(off+ckptPageSize, len(mem))
			differs := !bytes.Equal(base[off:end], mem[off:end])
			if idx := off / ckptPageSize; emitted[idx] != differs {
				t.Fatalf("page %d: emitted=%t, differs from base=%t", idx, emitted[idx], differs)
			}
		}
		for _, p := range pages {
			off := p.index * ckptPageSize
			if want := min(ckptPageSize, len(mem)-off); len(p.data) != want {
				t.Fatalf("page %d holds %d bytes, want %d", p.index, len(p.data), want)
			}
		}
	})
}
