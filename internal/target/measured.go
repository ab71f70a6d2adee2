package target

import (
	"sync/atomic"

	"goofi/internal/obsv"
	"goofi/internal/scan"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// Measured wraps another target's Operations and times every call into an
// obsv.Recorder — the observability sibling of Flaky: instead of breaking
// operations it measures them. Each operation maps onto one leaf phase of
// the obsv taxonomy (initialisation, workload execution, scan shift-in/out,
// memory access, checkpointing), so a campaign run over Measured targets
// yields a per-phase wall-clock breakdown.
//
// Unlike Flaky, Measured DOES forward the optional capability interfaces
// (Checkpointer, CheckpointStore, TriggerWaiter, ExperimentSeeder) by probing
// the inner target dynamically: instrumentation must be transparent, or switching on
// -metrics-out would silently change which techniques a campaign can run.
// The trade-off is that a capability probe against Measured is optimistic —
// it answers for the wrapper, and an inner target without the capability
// surfaces ErrNotImplemented at call time instead of probe time.
//
// Inside an experiment attempt, a timed operation's phase event is
// attributed to the attempt the runner stamped (SetTraceContext); outside
// every attempt it names no experiment and records under the worker id.
type Measured struct {
	Operations
	rec *obsv.Recorder
	tid atomic.Int32
	tc  obsv.TraceContext
}

// NewMeasured wraps inner, recording into rec (nil rec is allowed and makes
// every timing a no-op).
func NewMeasured(inner Operations, rec *obsv.Recorder) *Measured {
	return &Measured{Operations: inner, rec: rec}
}

// MeasuredFactory wraps every target the inner factory mints with the same
// recorder. The campaign runner assigns worker ids via SetWorkerID.
func MeasuredFactory(inner Factory, rec *obsv.Recorder) Factory {
	return FactoryFunc(func() (Operations, error) {
		ops, err := inner.New()
		if err != nil {
			return nil, err
		}
		return NewMeasured(ops, rec), nil
	})
}

// SetWorkerID assigns the virtual thread id this instance records under
// (0 = sequential/coordinator, 1..N = pool workers).
func (m *Measured) SetWorkerID(tid int32) { m.tid.Store(tid) }

// Unwrap returns the wrapped target, for capability probes that need the
// real implementation.
func (m *Measured) Unwrap() Operations { return m.Operations }

func (m *Measured) begin(p obsv.Phase) obsv.Span {
	if m.tc.Experiment != "" {
		return m.rec.BeginIn(p, m.tc)
	}
	return m.rec.Begin(p, m.tid.Load())
}

// InitTestCard times target power-up/reset as target-init.
func (m *Measured) InitTestCard() error {
	sp := m.begin(obsv.PhaseInit)
	defer sp.End()
	return m.Operations.InitTestCard()
}

// LoadWorkload times workload assembly/load as target-init.
func (m *Measured) LoadWorkload(w workload.Spec) error {
	sp := m.begin(obsv.PhaseInit)
	defer sp.End()
	return m.Operations.LoadWorkload(w)
}

// RunWorkload times arming the workload as target-init.
func (m *Measured) RunWorkload() error {
	sp := m.begin(obsv.PhaseInit)
	defer sp.End()
	return m.Operations.RunWorkload()
}

// SetBreakpoint times breakpoint arming as workload time.
func (m *Measured) SetBreakpoint(cycle uint64) error {
	sp := m.begin(obsv.PhaseWorkload)
	defer sp.End()
	return m.Operations.SetBreakpoint(cycle)
}

// WaitForBreakpoint times execution up to the breakpoint as workload time.
func (m *Measured) WaitForBreakpoint(maxCycles uint64) (bool, error) {
	sp := m.begin(obsv.PhaseWorkload)
	defer sp.End()
	return m.Operations.WaitForBreakpoint(maxCycles)
}

// WaitForTermination times the run-to-completion leg as workload time.
func (m *Measured) WaitForTermination(spec TerminationSpec) (Termination, error) {
	sp := m.begin(obsv.PhaseWorkload)
	defer sp.End()
	return m.Operations.WaitForTermination(spec)
}

// ReadScanChain times TAP shift-out.
func (m *Measured) ReadScanChain(chain string) (scan.Bits, error) {
	sp := m.begin(obsv.PhaseScanOut)
	defer sp.End()
	return m.Operations.ReadScanChain(chain)
}

// WriteScanChain times TAP shift-in.
func (m *Measured) WriteScanChain(chain string, bits scan.Bits) error {
	sp := m.begin(obsv.PhaseScanIn)
	defer sp.End()
	return m.Operations.WriteScanChain(chain, bits)
}

// ReadMemory times host-port reads.
func (m *Measured) ReadMemory(addr uint32, n int) ([]uint32, error) {
	sp := m.begin(obsv.PhaseMemory)
	defer sp.End()
	return m.Operations.ReadMemory(addr, n)
}

// WriteMemory times host-port writes.
func (m *Measured) WriteMemory(addr uint32, vals []uint32) error {
	sp := m.begin(obsv.PhaseMemory)
	defer sp.End()
	return m.Operations.WriteMemory(addr, vals)
}

// SaveCheckpoint forwards Checkpointer, timed as checkpoint-save. An inner
// target without the capability gets ErrNotImplemented.
func (m *Measured) SaveCheckpoint() error {
	cp, ok := m.Operations.(Checkpointer)
	if !ok {
		return ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseCheckpointSave)
	defer sp.End()
	return cp.SaveCheckpoint()
}

// RestoreCheckpoint forwards Checkpointer, timed as checkpoint-restore.
func (m *Measured) RestoreCheckpoint() (bool, error) {
	cp, ok := m.Operations.(Checkpointer)
	if !ok {
		return false, ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseCheckpointRestore)
	defer sp.End()
	return cp.RestoreCheckpoint()
}

// ClearCheckpoint forwards Checkpointer (untimed: it only drops state).
func (m *Measured) ClearCheckpoint() {
	if cp, ok := m.Operations.(Checkpointer); ok {
		cp.ClearCheckpoint()
	}
}

// SaveCheckpointAt forwards CheckpointStore, timed as checkpoint-save.
func (m *Measured) SaveCheckpointAt(id uint64) error {
	cs, ok := m.Operations.(CheckpointStore)
	if !ok {
		return ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseCheckpointSave)
	defer sp.End()
	return cs.SaveCheckpointAt(id)
}

// RestoreCheckpointAt forwards CheckpointStore, timed as checkpoint-restore.
func (m *Measured) RestoreCheckpointAt(id uint64) (bool, error) {
	cs, ok := m.Operations.(CheckpointStore)
	if !ok {
		return false, ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseCheckpointRestore)
	defer sp.End()
	return cs.RestoreCheckpointAt(id)
}

// DropCheckpointAt forwards CheckpointStore (untimed: it only drops state).
func (m *Measured) DropCheckpointAt(id uint64) {
	if cs, ok := m.Operations.(CheckpointStore); ok {
		cs.DropCheckpointAt(id)
	}
}

// DropCheckpoints forwards CheckpointStore (untimed).
func (m *Measured) DropCheckpoints() {
	if cs, ok := m.Operations.(CheckpointStore); ok {
		cs.DropCheckpoints()
	}
}

// CheckpointBytes forwards CheckpointStore (untimed; 0 without the
// capability).
func (m *Measured) CheckpointBytes() int64 {
	if cs, ok := m.Operations.(CheckpointStore); ok {
		return cs.CheckpointBytes()
	}
	return 0
}

// ExportCheckpoint forwards CheckpointStore (untimed: exports alias).
func (m *Measured) ExportCheckpoint(id uint64) (any, bool) {
	if cs, ok := m.Operations.(CheckpointStore); ok {
		return cs.ExportCheckpoint(id)
	}
	return nil, false
}

// ImportCheckpoint forwards CheckpointStore, timed as checkpoint-save (an
// import is how a worker's pool acquires a snapshot).
func (m *Measured) ImportCheckpoint(id uint64, snap any) error {
	cs, ok := m.Operations.(CheckpointStore)
	if !ok {
		return ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseCheckpointSave)
	defer sp.End()
	return cs.ImportCheckpoint(id, snap)
}

// WaitForTrigger forwards TriggerWaiter, timed as workload time.
func (m *Measured) WaitForTrigger(trig trigger.Trigger, maxCycles uint64) (bool, error) {
	tw, ok := m.Operations.(TriggerWaiter)
	if !ok {
		return false, ErrNotImplemented
	}
	sp := m.begin(obsv.PhaseWorkload)
	defer sp.End()
	return tw.WaitForTrigger(trig, maxCycles)
}

// SeedExperiment forwards ExperimentSeeder (untimed), preserving the
// bit-reproducibility contract for wrapped chaos targets.
func (m *Measured) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	if es, ok := m.Operations.(ExperimentSeeder); ok {
		es.SeedExperiment(campaignSeed, experiment, attempt)
	}
}

// SetTraceContext stores the attempt's provenance context and forwards it
// inward (TraceContextSetter). Like SeedExperiment, the runner calls this
// before launching the attempt, and again with no experiment once the
// attempt has returned, so a plain field is race-free.
func (m *Measured) SetTraceContext(tc obsv.TraceContext) {
	m.tc = tc
	if s, ok := m.Operations.(TraceContextSetter); ok {
		s.SetTraceContext(tc)
	}
}

// ObsvTraceContext returns the attempt context (TraceContextCarrier).
func (m *Measured) ObsvTraceContext() obsv.TraceContext { return m.tc }
