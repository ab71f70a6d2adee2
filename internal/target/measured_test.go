package target

import (
	"testing"

	"goofi/internal/obsv"
	"goofi/internal/scan"
	"goofi/internal/workload"
)

// TestMeasuredPhaseMapping drives every instrumented operation against a
// real Thor target and checks the time lands in the right leaf phase.
func TestMeasuredPhaseMapping(t *testing.T) {
	rec := obsv.New(obsv.Options{})
	m := NewMeasured(NewDefaultThorTarget(), rec)

	if err := m.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("bubblesort")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := m.RunWorkload(); err != nil {
		t.Fatal(err)
	}
	if rec.PhaseTotal(obsv.PhaseInit) <= 0 {
		t.Fatal("init phase not recorded")
	}

	if err := m.SetBreakpoint(50); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitForBreakpoint(1000); err != nil {
		t.Fatal(err)
	}
	chains := m.Chains()
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	bits, err := m.ReadScanChain(chains[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteScanChain(chains[0].Name, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadMemory(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteMemory(0, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitForTermination(TerminationSpec{MaxCycles: 100000}); err != nil {
		t.Fatal(err)
	}

	for _, p := range []obsv.Phase{obsv.PhaseWorkload, obsv.PhaseScanOut, obsv.PhaseScanIn, obsv.PhaseMemory} {
		if rec.PhaseTotal(p) <= 0 {
			t.Errorf("phase %s not recorded", p)
		}
	}
	// No operation here should have been accounted elsewhere.
	for _, p := range []obsv.Phase{obsv.PhasePlan, obsv.PhaseRetry, obsv.PhaseFlush} {
		if rec.PhaseTotal(p) != 0 {
			t.Errorf("phase %s spuriously recorded", p)
		}
	}
}

// TestMeasuredForwardsCapabilities pins the contrast with Flaky: Measured
// must forward Checkpointer/TriggerWaiter/ExperimentSeeder so that turning
// on metrics never changes which techniques a campaign can run.
func TestMeasuredForwardsCapabilities(t *testing.T) {
	rec := obsv.New(obsv.Options{})
	thor := NewDefaultThorTarget()
	var ops Operations = NewMeasured(thor, rec)
	if _, ok := ops.(Checkpointer); !ok {
		t.Error("Measured must forward Checkpointer")
	}
	if _, ok := ops.(TriggerWaiter); !ok {
		t.Error("Measured must forward TriggerWaiter")
	}
	if _, ok := ops.(ExperimentSeeder); !ok {
		t.Error("Measured must forward ExperimentSeeder")
	}
	if _, ok := ops.(obsv.Carrier); !ok {
		t.Error("Measured must implement obsv.Carrier")
	}

	// Checkpoint time must land in the checkpoint phase.
	if err := ops.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("bubblesort")
	if err != nil {
		t.Fatal(err)
	}
	if err := ops.LoadWorkload(w); err != nil {
		t.Fatal(err)
	}
	if err := ops.RunWorkload(); err != nil {
		t.Fatal(err)
	}
	cp := ops.(Checkpointer)
	if err := cp.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if ok, err := cp.RestoreCheckpoint(); err != nil || !ok {
		t.Fatalf("restore = %v, %v", ok, err)
	}
	cp.ClearCheckpoint()
	if rec.PhaseTotal(obsv.PhaseCheckpointSave) <= 0 {
		t.Error("checkpoint-save phase not recorded")
	}
	if rec.PhaseTotal(obsv.PhaseCheckpointRestore) <= 0 {
		t.Error("checkpoint-restore phase not recorded")
	}
}

// measuredStub is a capability-free inner target.
type measuredStub struct{ BaseTarget }

func (measuredStub) ReadScanChain(string) (scan.Bits, error) { return scan.NewBits(4), nil }

// TestMeasuredOptimisticProbes documents the trade-off of forwarding: a
// probe against Measured answers for the wrapper, so an inner target
// without the capability surfaces ErrNotImplemented at call time.
func TestMeasuredOptimisticProbes(t *testing.T) {
	m := NewMeasured(measuredStub{}, obsv.New(obsv.Options{}))
	if err := m.SaveCheckpoint(); err != ErrNotImplemented {
		t.Fatalf("SaveCheckpoint = %v", err)
	}
	if _, err := m.RestoreCheckpoint(); err != ErrNotImplemented {
		t.Fatalf("RestoreCheckpoint = %v", err)
	}
	m.ClearCheckpoint() // must not panic
	if _, err := m.WaitForTrigger(nil, 10); err != ErrNotImplemented {
		t.Fatalf("WaitForTrigger = %v", err)
	}
	m.SeedExperiment(1, 2, 3) // must not panic
}

// TestMeasuredNilRecorder: instrumentation with a nil recorder is the
// disabled state — operations pass straight through.
func TestMeasuredNilRecorder(t *testing.T) {
	m := NewMeasured(measuredStub{}, nil)
	if m.ObsvRecorder() != nil {
		t.Fatal("recorder should be nil")
	}
	if _, err := m.ReadScanChain("x"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.ReadScanChain("x")
	})
	// One allocation is the stub's NewBits; the measurement layer itself
	// must add none.
	if allocs > 1 {
		t.Fatalf("nil-recorder wrap allocates %.1f per op", allocs)
	}
}

// TestMeasuredFactoryAndTID exercises the factory path and worker-id
// tagging used by the parallel runner.
func TestMeasuredFactoryAndTID(t *testing.T) {
	rec := obsv.New(obsv.Options{Trace: true})
	f := MeasuredFactory(FactoryFunc(func() (Operations, error) { return NewSimpleTarget(), nil }), rec)
	ops, err := f.New()
	if err != nil {
		t.Fatal(err)
	}
	m, ok := ops.(*Measured)
	if !ok {
		t.Fatalf("factory minted %T", ops)
	}
	m.SetWorkerID(3)
	if m.ObsvTID() != 3 {
		t.Fatalf("tid = %d", m.ObsvTID())
	}
	if m.Unwrap() == nil {
		t.Fatal("unwrap")
	}
	// GroupOf reaches the recorder through the Operations interface.
	sp := obsv.GroupOf(ops, "inject")
	sp.End()
}
