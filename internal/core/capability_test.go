package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/scan"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// capabilityCampaigns are the campaigns that exercise a target capability
// (plain SCIFI is the control): the checkpoint store through scifi-checkpoint
// and forking, the trigger wait through scifi-triggered.
func capabilityCampaigns() []Campaign {
	plain := scifiCampaign("cap-scifi", 6)
	cp := scifiCampaign("cap-checkpoint", 6)
	cp.Technique = TechSCIFICheckpoint
	fork := scifiCampaign("cap-fork", 6)
	fork.Fork = true
	trig := scifiCampaign("cap-triggered", 6)
	trig.Technique = TechSCIFITriggered
	trig.TriggerSpec = "branch:2"
	return []Campaign{plain, cp, fork, trig}
}

// runOn runs c on ops against a fresh store holding ops' registration.
func runOn(t *testing.T, ops target.Operations, c Campaign) (*dbase.Store, error) {
	t.Helper()
	store := newStoreT(t)
	if err := RegisterTarget(store, ops, "capability test"); err != nil {
		t.Fatal(err)
	}
	_, err := NewRunner(ops, store, c).Run(context.Background())
	return store, err
}

// TestWrapperStacksLogSameRows: every wrapper stack over Thor reaches the
// same capabilities, so each campaign logs byte-identical rows whatever the
// stack, and a Measured layer times the checkpoint calls that pass through
// it.
func TestWrapperStacksLogSameRows(t *testing.T) {
	stacks := []struct {
		name string
		wrap func(target.Operations, *obsv.Recorder) target.Operations
	}{
		{"thor", func(ops target.Operations, _ *obsv.Recorder) target.Operations { return ops }},
		{"measured", func(ops target.Operations, rec *obsv.Recorder) target.Operations {
			return target.NewMeasured(ops, rec)
		}},
		{"flaky", func(ops target.Operations, _ *obsv.Recorder) target.Operations {
			return target.NewFlaky(ops, target.FlakyConfig{})
		}},
		{"measured-flaky", func(ops target.Operations, rec *obsv.Recorder) target.Operations {
			return target.NewMeasured(target.NewFlaky(ops, target.FlakyConfig{}), rec)
		}},
	}
	for _, c := range capabilityCampaigns() {
		t.Run(c.Name, func(t *testing.T) {
			var want []dbase.ExperimentRow
			for _, st := range stacks {
				rec := obsv.New(obsv.Options{})
				store, err := runOn(t, st.wrap(target.NewDefaultThorTarget(), rec), c)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				rows := campaignRows(t, store, c.Name)
				if want == nil {
					want = rows
					if len(want) != c.NExperiments+1 {
						t.Fatalf("%s: rows = %d, want %d", st.name, len(want), c.NExperiments+1)
					}
				} else {
					requireSameRows(t, want, rows, st.name)
				}
				if !strings.HasPrefix(st.name, "measured") || !(c.Fork || c.Technique == TechSCIFICheckpoint) {
					continue
				}
				calls := map[string]int64{}
				for _, p := range rec.Snapshot().Phases {
					calls[p.Phase] = p.Count
				}
				for _, p := range []obsv.Phase{obsv.PhaseCheckpointSave, obsv.PhaseCheckpointRestore} {
					if calls[p.String()] == 0 {
						t.Errorf("%s: no %s phase recorded", st.name, p)
					}
				}
			}
		})
	}
}

// bareCard is a BaseTarget port with one core scan chain whose workload
// always runs to its end, and no checkpoint store or trigger wait.
type bareCard struct{ target.BaseTarget }

func (bareCard) Name() string                       { return "bare-card" }
func (bareCard) InitTestCard() error                { return nil }
func (bareCard) LoadWorkload(workload.Spec) error   { return nil }
func (bareCard) RunWorkload() error                 { return nil }
func (bareCard) WriteMemory(uint32, []uint32) error { return nil }
func (bareCard) ReadMemory(_ uint32, n int) ([]uint32, error) {
	return make([]uint32, n), nil
}
func (bareCard) SetBreakpoint(uint64) error                    { return nil }
func (bareCard) WaitForBreakpoint(uint64) (bool, error)        { return true, nil }
func (bareCard) ReadScanChain(string) (scan.Bits, error)       { return scan.NewBits(8), nil }
func (bareCard) WriteScanChain(string, scan.Bits) error        { return nil }
func (bareCard) BitName(chain string, bit int) (string, error) { return chain, nil }
func (bareCard) WaitForTermination(target.TerminationSpec) (target.Termination, error) {
	return target.Termination{Reason: target.TerminWorkloadEnd}, nil
}
func (bareCard) Chains() []target.ChainInfo {
	return []target.ChainInfo{{Name: "internal.core", Bits: 8, Writable: []int{0, 1, 2, 3, 4, 5, 6, 7}}}
}

// TestUnsupportedCapabilityFailsOnUse: a target that keeps BaseTarget's
// capability defaults passes validation, then fails the campaign on the
// first call that needs the capability, bare or behind a wrapper. The
// checkpoint users fail in the reference run, before any row is logged;
// scifi-triggered needs the trigger only once there is a fault to place, so
// its reference row is logged and the first experiment fails.
func TestUnsupportedCapabilityFailsOnUse(t *testing.T) {
	stacks := map[string]target.Operations{
		"bare":  bareCard{},
		"flaky": target.NewFlaky(bareCard{}, target.FlakyConfig{}),
	}
	for _, c := range capabilityCampaigns()[1:] {
		want, wantRows := "checkpoint store", 0
		if c.Technique == TechSCIFITriggered {
			want, wantRows = "waits for triggers", 1
		}
		for name, ops := range stacks {
			store, err := runOn(t, ops, c)
			if !errors.Is(err, target.ErrNotImplemented) || !strings.Contains(err.Error(), want) ||
				!strings.Contains(err.Error(), "bare-card") {
				t.Errorf("%s on %s: err = %v, want ErrNotImplemented naming bare-card and %q", c.Name, name, err, want)
			}
			rows := campaignRows(t, store, c.Name)
			if len(rows) != wantRows || (wantRows == 1 && rows[0].ExperimentName != c.Name+RefSuffix) {
				t.Errorf("%s on %s: logged %+v, want %d reference row(s)", c.Name, name, rows, wantRows)
			}
		}
	}
}
