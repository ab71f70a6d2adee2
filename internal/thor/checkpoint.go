package thor

import (
	"bytes"
	"fmt"
)

// ckptPageSize is the granularity of delta memory images: a delta checkpoint
// stores only the pages that differ from its base image. 256 bytes keeps the
// diff loop cache-friendly while a typical workload suffix touches only a
// handful of pages out of the 64 KiB address space.
const ckptPageSize = 256

// deltaPage is one divergent page of a delta checkpoint. data is an owned
// copy of ckptPageSize bytes (the final page of an image may be shorter).
type deltaPage struct {
	index int
	data  []byte
}

// diffPages returns owned copies of the pages of mem that differ from base.
// The images must have equal length.
func diffPages(base, mem []byte) []deltaPage {
	var pages []deltaPage
	for off := 0; off < len(mem); off += ckptPageSize {
		end := off + ckptPageSize
		if end > len(mem) {
			end = len(mem)
		}
		if !bytes.Equal(base[off:end], mem[off:end]) {
			pages = append(pages, deltaPage{
				index: off / ckptPageSize,
				data:  append([]byte(nil), mem[off:end]...),
			})
		}
	}
	return pages
}

// applyDelta overwrites dst's divergent pages from the delta list. dst must
// already hold the base image.
func applyDelta(dst []byte, pages []deltaPage) {
	for _, p := range pages {
		copy(dst[p.index*ckptPageSize:], p.data)
	}
}

// Checkpoint is a full snapshot of the processor's architectural state,
// memory and caches. Campaigns whose injection window starts late in the
// workload use checkpoints to amortise the common prefix of every experiment
// (the optimisation GOOFI's successor introduced to cut campaign time).
//
// A checkpoint stores its memory image in one of two forms: a full copy
// (mem != nil) or a page-granular delta against a base image (base != nil),
// produced by CheckpointDelta. Both restore byte-identically; the delta form
// exists so a forking campaign can hold many checkpoints of one golden run
// within a memory budget.
type Checkpoint struct {
	regs      [NumRegs]uint32
	pc        uint32
	psw       uint8
	ir        uint32
	mar       uint32
	mdr       uint32
	addrBus   uint32
	dataBus   uint32
	ctrlBus   uint8
	mem       []byte      // full memory image, or nil for delta form
	base      []byte      // shared read-only base image (delta form only)
	delta     []deltaPage // pages diverging from base (delta form only)
	icache    []cacheLine
	dcache    []cacheLine
	iHits     uint64
	iMisses   uint64
	dHits     uint64
	dMisses   uint64
	wdCounter uint64
	cycles    uint64
	iters     uint64
	status    Status
	detection *Detection
	inPorts   [16]uint32
	outPorts  [16]uint32
}

// Checkpoint captures the CPU's complete state with a full memory copy.
func (c *CPU) Checkpoint() *Checkpoint {
	cp := c.snapshotWithoutMemory()
	cp.mem = append([]byte(nil), c.mem...)
	return cp
}

// CheckpointDelta captures the CPU's complete state, storing memory as a
// page-granular delta against the golden checkpoint's full image. golden must
// be a full-form checkpoint of a CPU with the same memory size; its image is
// aliased (read-only), so golden must stay unmodified while the delta lives.
func (c *CPU) CheckpointDelta(golden *Checkpoint) (*Checkpoint, error) {
	if golden == nil || golden.mem == nil {
		return nil, fmt.Errorf("thor: delta checkpoint needs a full-form golden checkpoint")
	}
	if len(golden.mem) != len(c.mem) {
		return nil, fmt.Errorf("thor: golden image is %d bytes, CPU memory is %d", len(golden.mem), len(c.mem))
	}
	cp := c.snapshotWithoutMemory()
	cp.base = golden.mem
	cp.delta = diffPages(golden.mem, c.mem)
	return cp, nil
}

// snapshotWithoutMemory copies every state element except the memory image.
func (c *CPU) snapshotWithoutMemory() *Checkpoint {
	cp := &Checkpoint{
		regs:      c.Regs,
		pc:        c.PC,
		psw:       c.PSW,
		ir:        c.IR,
		mar:       c.MAR,
		mdr:       c.MDR,
		addrBus:   c.AddrBus,
		dataBus:   c.DataBus,
		ctrlBus:   c.CtrlBus,
		icache:    append([]cacheLine(nil), c.icache.lines...),
		dcache:    append([]cacheLine(nil), c.dcache.lines...),
		iHits:     c.icache.hits,
		iMisses:   c.icache.misses,
		dHits:     c.dcache.hits,
		dMisses:   c.dcache.misses,
		wdCounter: c.wdCounter,
		cycles:    c.cycles,
		iters:     c.iters,
		status:    c.status,
		inPorts:   c.inPorts,
		outPorts:  c.outPorts,
	}
	if c.detection != nil {
		d := *c.detection
		cp.detection = &d
	}
	return cp
}

// Restore copies a checkpoint back into the CPU. It writes into the existing
// memory and cache arrays, so scan chains built over this CPU stay valid.
// The CPU configuration must match the one the checkpoint was taken from.
func (c *CPU) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("thor: nil checkpoint")
	}
	img, base := cp.mem, false
	if img == nil {
		img, base = cp.base, true
	}
	if len(img) != len(c.mem) ||
		len(cp.icache) != len(c.icache.lines) ||
		len(cp.dcache) != len(c.dcache.lines) {
		return fmt.Errorf("thor: checkpoint shape does not match this CPU")
	}
	c.Regs = cp.regs
	c.PC = cp.pc
	c.PSW = cp.psw
	c.IR = cp.ir
	c.MAR = cp.mar
	c.MDR = cp.mdr
	c.AddrBus = cp.addrBus
	c.DataBus = cp.dataBus
	c.CtrlBus = cp.ctrlBus
	copy(c.mem, img)
	if base {
		applyDelta(c.mem, cp.delta)
	}
	copy(c.icache.lines, cp.icache)
	copy(c.dcache.lines, cp.dcache)
	c.icache.hits, c.icache.misses = cp.iHits, cp.iMisses
	c.dcache.hits, c.dcache.misses = cp.dHits, cp.dMisses
	c.wdCounter = cp.wdCounter
	c.cycles = cp.cycles
	c.iters = cp.iters
	c.status = cp.status
	c.detection = nil
	if cp.detection != nil {
		d := *cp.detection
		c.detection = &d
	}
	c.inPorts = cp.inPorts
	c.outPorts = cp.outPorts
	c.last = Events{}
	return nil
}

// ckptLineBytes is the accounting weight of one cache line: valid bit + tag +
// data + parity padded to the struct's in-memory footprint.
const ckptLineBytes = 12

// ckptFixedBytes is the accounting weight of the fixed-size state (registers,
// buses, counters, ports) plus struct overhead. Accounting is deliberately
// approximate — it feeds a memory budget, not an allocator.
const ckptFixedBytes = 512

// Bytes estimates the checkpoint's owned memory footprint. A delta-form
// checkpoint counts only its divergent pages, not the shared base image.
func (cp *Checkpoint) Bytes() int64 {
	n := int64(ckptFixedBytes)
	n += int64(len(cp.mem))
	for _, p := range cp.delta {
		n += int64(len(p.data)) + 16
	}
	n += int64((len(cp.icache) + len(cp.dcache)) * ckptLineBytes)
	return n
}
