package target

import (
	"fmt"

	"goofi/internal/simple"
	"goofi/internal/workload"
)

// Word geometry of the simple checksum workload: the program lives at word
// 0, sums sixteen data words at dataWord into resultWord.
const (
	simpleDataWord   = 0x200
	simpleDataCount  = 16
	simpleResultWord = 0x300
)

// SimpleTarget ports GOOFI to the 16-bit accumulator machine of
// internal/simple — the minimal port of the paper's §2.2 extension story. It
// embeds BaseTarget, so every scan operation stays on the framework default:
// SWIFI works, SCIFI is rejected by campaign validation.
type SimpleTarget struct {
	BaseTarget
	m *simple.Machine
	w workload.Spec

	// cpstore implements CheckpointStore over full machine-state snapshots:
	// the machine's 8 KiB image is small enough that delta encoding would
	// buy nothing, so every snapshot is a complete simple.State.
	cpstore map[uint64]*simple.State
}

// simpleStateBytes is the accounting weight of one machine snapshot: the
// memory image plus registers, counters and slice headers.
const simpleStateBytes = int64(simple.MemWords*2 + 128)

// NewSimpleTarget builds the accumulator-machine target.
func NewSimpleTarget() *SimpleTarget { return &SimpleTarget{m: simple.New()} }

// Name identifies the accumulator test card.
func (t *SimpleTarget) Name() string { return "simple-accu" }

// InitTestCard resets the machine and zeroes its memory so no state leaks
// between experiments (the machine's own Reset preserves memory).
func (t *SimpleTarget) InitTestCard() error {
	t.m.Reset()
	for addr := uint16(0); int(addr) < simple.MemWords; addr++ {
		if err := t.m.Write(addr, 0); err != nil {
			return fmt.Errorf("target: %w", err)
		}
	}
	return nil
}

// LoadWorkload installs the built-in checksum program with a deterministic
// data block. The Spec's Source is documentation only — this machine has no
// assembler.
func (t *SimpleTarget) LoadWorkload(w workload.Spec) error {
	prog := simple.ChecksumProgram(simpleDataWord, simpleDataCount, simpleResultWord)
	for i, word := range prog {
		if err := t.m.Write(uint16(i), word); err != nil {
			return fmt.Errorf("target: workload %s: %w", w.Name, err)
		}
	}
	for i := 0; i < simpleDataCount; i++ {
		if err := t.m.Write(simpleDataWord+uint16(i), uint16(7*i+13)); err != nil {
			return fmt.Errorf("target: workload %s: %w", w.Name, err)
		}
	}
	t.w = w
	return nil
}

// RunWorkload arms the program at address zero without executing anything.
func (t *SimpleTarget) RunWorkload() error {
	t.m.Reset()
	return nil
}

// WriteMemory writes words through the host port. The machine's words are
// 16 bits wide, so values are truncated — faults injected into the upper
// half of a 32-bit word vanish, exactly like flipping a wire the narrow
// machine does not have.
func (t *SimpleTarget) WriteMemory(addr uint32, vals []uint32) error {
	for i, v := range vals {
		word := addr/4 + uint32(i)
		if word > 0xFFFF {
			return fmt.Errorf("target: address %#x out of range", addr+uint32(4*i))
		}
		if err := t.m.Write(uint16(word), uint16(v)); err != nil {
			return fmt.Errorf("target: %w", err)
		}
	}
	return nil
}

// ReadMemory reads words through the host port.
func (t *SimpleTarget) ReadMemory(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		word := addr/4 + uint32(i)
		if word > 0xFFFF {
			return nil, fmt.Errorf("target: address %#x out of range", addr+uint32(4*i))
		}
		v, err := t.m.Read(uint16(word))
		if err != nil {
			return nil, fmt.Errorf("target: %w", err)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// WaitForTermination runs the program to completion within the cycle budget
// and classifies the outcome.
func (t *SimpleTarget) WaitForTermination(spec TerminationSpec) (Termination, error) {
	budget := spec.MaxCycles
	if budget == 0 {
		budget = 1 << 20
	}
	for t.m.Status() == simple.StatusRunning && t.m.Cycles() < budget {
		t.m.Step()
	}
	term := Termination{Cycles: t.m.Cycles()}
	switch t.m.Status() {
	case simple.StatusHalted:
		term.Reason = TerminWorkloadEnd
	case simple.StatusDetected:
		term.Reason = TerminDetected
		term.Mechanism = t.m.Mechanism()
	default:
		term.Reason = TerminTimeout
	}
	return term, nil
}

// MemLayout reports the machine's word-addressed memory as bytes.
func (t *SimpleTarget) MemLayout() (uint32, uint32) { return simple.MemWords * 4, 0 }

// SaveCheckpointAt snapshots the machine state under id (CheckpointStore).
func (t *SimpleTarget) SaveCheckpointAt(id uint64) error {
	if t.cpstore == nil {
		t.cpstore = make(map[uint64]*simple.State)
	}
	st := t.m.SaveState()
	t.cpstore[id] = &st
	return nil
}

// RestoreCheckpointAt restores the snapshot saved under id, reporting false
// when the store holds none (CheckpointStore).
func (t *SimpleTarget) RestoreCheckpointAt(id uint64) (bool, error) {
	st, ok := t.cpstore[id]
	if !ok {
		return false, nil
	}
	t.m.RestoreState(*st)
	return true, nil
}

// DropCheckpointAt discards the snapshot saved under id (CheckpointStore).
func (t *SimpleTarget) DropCheckpointAt(id uint64) { delete(t.cpstore, id) }

// DropCheckpoints discards every snapshot (CheckpointStore).
func (t *SimpleTarget) DropCheckpoints() { t.cpstore = nil }

// CheckpointBytes estimates the store's footprint (CheckpointStore).
func (t *SimpleTarget) CheckpointBytes() int64 {
	return int64(len(t.cpstore)) * simpleStateBytes
}

// ExportCheckpoint hands out a snapshot as an opaque immutable value
// (CheckpointStore).
func (t *SimpleTarget) ExportCheckpoint(id uint64) (any, bool) {
	st, ok := t.cpstore[id]
	return st, ok
}

// ImportCheckpoint installs a snapshot exported by a sibling instance
// (CheckpointStore).
func (t *SimpleTarget) ImportCheckpoint(id uint64, snap any) error {
	st, ok := snap.(*simple.State)
	if !ok || st == nil {
		return fmt.Errorf("target: import checkpoint %d: not a simple-machine snapshot (%T)", id, snap)
	}
	if t.cpstore == nil {
		t.cpstore = make(map[uint64]*simple.State)
	}
	t.cpstore[id] = st
	return nil
}

// SimpleChecksumWorkload describes the built-in checksum program of
// SimpleTarget in workload.Spec terms, so the standard campaign machinery
// (validation, logging, analysis) applies unchanged.
func SimpleChecksumWorkload() workload.Spec {
	return workload.Spec{
		Name:           "simple-checksum",
		Description:    "sum sixteen data words into a result word (built into the simple target)",
		Source:         "; built-in: checksum of 16 words at 0x200 into 0x300 (no assembler on this target)",
		TerminatesSelf: true,
		MaxCycles:      4096,
		ResultAddrs:    []uint32{4 * simpleResultWord},
	}
}
