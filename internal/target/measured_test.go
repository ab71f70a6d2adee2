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

// TestMeasuredForwardsCapabilities: checkpoint calls pass through Measured
// to the inner store, timed in the checkpoint phases, and Measured carries
// the attempt's trace context.
func TestMeasuredForwardsCapabilities(t *testing.T) {
	rec := obsv.New(obsv.Options{})
	var ops Operations = NewMeasured(NewDefaultThorTarget(), rec)
	if _, ok := ops.(TraceContextCarrier); !ok {
		t.Error("Measured must implement TraceContextCarrier")
	}
	armThor(t, ops)
	if err := ops.SaveCheckpointAt(0); err != nil {
		t.Fatal(err)
	}
	if ok, err := ops.RestoreCheckpointAt(0); err != nil || !ok {
		t.Fatalf("restore = %v, %v", ok, err)
	}
	if ops.CheckpointBytes() <= 0 {
		t.Error("the inner store's footprint must show through")
	}
	ops.DropCheckpointAt(0)
	if ok, err := ops.RestoreCheckpointAt(0); err != nil || ok {
		t.Fatalf("restore after drop = %v, %v", ok, err)
	}
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

// TestMeasuredPassesNotImplemented: an inner target without a capability
// keeps BaseTarget's default, and Measured passes its ErrNotImplemented
// through unchanged.
func TestMeasuredPassesNotImplemented(t *testing.T) {
	m := NewMeasured(measuredStub{}, obsv.New(obsv.Options{}))
	if err := m.SaveCheckpointAt(0); err != ErrNotImplemented {
		t.Fatalf("SaveCheckpointAt = %v", err)
	}
	if _, err := m.RestoreCheckpointAt(0); err != ErrNotImplemented {
		t.Fatalf("RestoreCheckpointAt = %v", err)
	}
	if err := m.ImportCheckpoint(0, nil); err != ErrNotImplemented {
		t.Fatalf("ImportCheckpoint = %v", err)
	}
	m.DropCheckpoints() // must not panic
	if _, err := m.WaitForTrigger(nil, 10); err != ErrNotImplemented {
		t.Fatalf("WaitForTrigger = %v", err)
	}
	m.SeedExperiment(1, 2, 3) // must not panic
}

// TestMeasuredNilRecorder: instrumentation with a nil recorder is the
// disabled state — operations pass straight through.
func TestMeasuredNilRecorder(t *testing.T) {
	m := NewMeasured(measuredStub{}, nil)
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
// tagging used by the parallel runner: outside an attempt a phase event
// records under the worker id and names no experiment; inside one it takes
// the stamped attempt's experiment, attempt and tid, and once the runner
// stamps a context without an experiment nothing stale is left behind.
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
	ops.InitTestCard()
	ApplyTraceContext(ops, obsv.TraceContext{Rec: rec, Campaign: "c", Experiment: "c/e0007", Index: 7, Attempt: 2, TID: 3})
	ops.InitTestCard()
	ApplyTraceContext(ops, obsv.TraceContext{Rec: rec, Campaign: "c", TID: 3})
	ops.InitTestCard()

	events := rec.Journal().Events()
	if len(events) != 3 {
		t.Fatalf("events = %+v", events)
	}
	for i, wantExp := range []string{"", "c/e0007", ""} {
		ev := events[i]
		if ev.Kind != obsv.EvPhase || ev.Detail != "target-init" || ev.TID != 3 || ev.Experiment != wantExp {
			t.Fatalf("event %d = %+v, want target-init on tid 3 in %q", i, ev, wantExp)
		}
	}
	if events[1].Attempt != 2 || events[1].Index != 7 {
		t.Fatalf("in-attempt event = %+v", events[1])
	}
}
