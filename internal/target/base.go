package target

import (
	"goofi/internal/scan"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// BaseTarget provides the Framework defaults of §2.2: every operation
// returns ErrNotImplemented (or a harmless zero value for the inventory
// calls), so a port only overrides the operations its system supports.
// Embed it by value; all methods use value receivers so they promote through
// both value and pointer embedding.
type BaseTarget struct{}

// Name returns a placeholder; ports should override it.
func (BaseTarget) Name() string { return "unnamed-target" }

// InitTestCard is not implemented by the framework default.
func (BaseTarget) InitTestCard() error { return ErrNotImplemented }

// LoadWorkload is not implemented by the framework default.
func (BaseTarget) LoadWorkload(workload.Spec) error { return ErrNotImplemented }

// RunWorkload is not implemented by the framework default.
func (BaseTarget) RunWorkload() error { return ErrNotImplemented }

// WriteMemory is not implemented by the framework default.
func (BaseTarget) WriteMemory(uint32, []uint32) error { return ErrNotImplemented }

// ReadMemory is not implemented by the framework default.
func (BaseTarget) ReadMemory(uint32, int) ([]uint32, error) { return nil, ErrNotImplemented }

// SetBreakpoint is not implemented by the framework default.
func (BaseTarget) SetBreakpoint(uint64) error { return ErrNotImplemented }

// WaitForBreakpoint is not implemented by the framework default.
func (BaseTarget) WaitForBreakpoint(uint64) (bool, error) { return false, ErrNotImplemented }

// ReadScanChain is not implemented by the framework default.
func (BaseTarget) ReadScanChain(string) (scan.Bits, error) { return scan.Bits{}, ErrNotImplemented }

// WriteScanChain is not implemented by the framework default.
func (BaseTarget) WriteScanChain(string, scan.Bits) error { return ErrNotImplemented }

// WaitForTermination is not implemented by the framework default.
func (BaseTarget) WaitForTermination(TerminationSpec) (Termination, error) {
	return Termination{}, ErrNotImplemented
}

// Chains reports no scan chains.
func (BaseTarget) Chains() []ChainInfo { return nil }

// BitName is not implemented by the framework default.
func (BaseTarget) BitName(string, int) (string, error) { return "", ErrNotImplemented }

// MemLayout reports no memory.
func (BaseTarget) MemLayout() (uint32, uint32) { return 0, 0 }

// SetDetailMode is a no-op: targets without tracing ignore detail mode.
func (BaseTarget) SetDetailMode(bool) {}

// TraceLog reports no trace.
func (BaseTarget) TraceLog() []TraceEntry { return nil }

// EnvLog reports no environment simulator.
func (BaseTarget) EnvLog() (vals, ends []uint32) { return nil, nil }

// SaveCheckpointAt is not implemented by the framework default.
func (BaseTarget) SaveCheckpointAt(uint64) error { return ErrNotImplemented }

// RestoreCheckpointAt is not implemented by the framework default.
func (BaseTarget) RestoreCheckpointAt(uint64) (bool, error) { return false, ErrNotImplemented }

// DropCheckpointAt is a no-op: the default store holds nothing.
func (BaseTarget) DropCheckpointAt(uint64) {}

// DropCheckpoints is a no-op: the default store holds nothing.
func (BaseTarget) DropCheckpoints() {}

// CheckpointBytes reports an empty store.
func (BaseTarget) CheckpointBytes() int64 { return 0 }

// ExportCheckpoint reports no snapshot.
func (BaseTarget) ExportCheckpoint(uint64) (any, bool) { return nil, false }

// ImportCheckpoint is not implemented by the framework default.
func (BaseTarget) ImportCheckpoint(uint64, any) error { return ErrNotImplemented }

// WaitForTrigger is not implemented by the framework default.
func (BaseTarget) WaitForTrigger(trigger.Trigger, uint64) (bool, error) {
	return false, ErrNotImplemented
}

// SeedExperiment is a no-op: targets without pseudo-randomness ignore it.
func (BaseTarget) SeedExperiment(int64, int, int) {}
