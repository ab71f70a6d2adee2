package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/scan"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// oracleState re-reads the target's observable state into a StateVector
// and encodes it: the reference encoding captureState's bytes must equal.
func oracleState(t *testing.T, ops target.Operations, resultAddrs []uint32, trace []target.TraceEntry) []byte {
	t.Helper()
	sv := &StateVector{}
	for _, ci := range ops.Chains() {
		bits, err := ops.ReadScanChain(ci.Name)
		if err != nil {
			t.Fatal(err)
		}
		sv.Chains = append(sv.Chains, ChainState{Name: ci.Name, Bits: bits.Len(), Data: bits.Pack()})
	}
	for _, addr := range resultAddrs {
		vals, err := ops.ReadMemory(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		sv.Memory = append(sv.Memory, MemWord{Addr: addr, Value: vals[0]})
	}
	vals, ends := ops.EnvLog()
	start := uint32(0)
	for _, end := range ends {
		sv.Env = append(sv.Env, append([]uint32(nil), vals[start:end]...))
		start = end
	}
	for _, te := range trace {
		sv.Trace = append(sv.Trace, TraceSample{Cycle: te.Cycle, PC: te.PC, Disasm: te.Disasm, Core: te.Core.Pack()})
	}
	return sv.Encode()
}

// TestCaptureMatchesEncodedVector runs the SCIFI algorithm for the
// reference plan and a few drawn plans and compares every captured State
// with the oracle encoding of the target's final state: a control loop
// with an env history, bubblesort without one, and a detail-mode rerun
// with a trace section. The capture buffer must carry no slack capacity,
// since the memory store keeps it as the row.
func TestCaptureMatchesEncodedVector(t *testing.T) {
	cases := []struct {
		name    string
		w       workload.Spec
		maxTime uint64
		detail  bool
	}{
		{"control-env", workload.Control(), 3800, false},
		{"bubblesort", workload.BubbleSort(), 1400, false},
		{"bubblesort-detail", workload.BubbleSort(), 1400, true},
	}
	tech, err := techniqueFor(TechSCIFI)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := scifiCampaign("capture-"+tc.name, 4)
			c.Workload = tc.w
			c.InjectMaxTime = tc.maxTime
			ops := target.NewDefaultThorTarget()
			if err := ops.InitTestCard(); err != nil {
				t.Fatal(err)
			}
			locs, err := faultmodel.Filter(c.LocationFilter).Resolve(ops)
			if err != nil {
				t.Fatal(err)
			}
			plans := []faultmodel.Plan{{}}
			rng := rand.New(rand.NewSource(c.Seed))
			for i := 0; i < c.NExperiments; i++ {
				plan, err := c.Model.Plan(rng, locs, c.InjectMinTime, c.InjectMaxTime, c.Workload.MaxCycles)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, plan)
			}
			ops.SetDetailMode(tc.detail)
			defer ops.SetDetailMode(false)
			for i, plan := range plans {
				exp, err := tech.run(ops, c, plan)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleState(t, ops, c.Workload.ResultAddrs, ops.TraceLog())
				if !bytes.Equal(exp.State, want) {
					t.Fatalf("plan %d [%s]: captured %d bytes differ from the oracle's %d", i, plan, len(exp.State), len(want))
				}
				if cap(exp.State) != len(exp.State) {
					t.Fatalf("plan %d: capture kept %d bytes of slack", i, cap(exp.State)-len(exp.State))
				}
				sv, err := DecodeStateVector(exp.State)
				if err != nil {
					t.Fatal(err)
				}
				if hasEnv := len(sv.Env) > 0; hasEnv != (tc.w.Env != "") {
					t.Fatalf("plan %d: %d env iterations for env %q", i, len(sv.Env), tc.w.Env)
				}
				if hasTrace := len(sv.Trace) > 0; hasTrace != tc.detail {
					t.Fatalf("plan %d: %d trace samples with detail mode %v", i, len(sv.Trace), tc.detail)
				}
			}
		})
	}
}

// glitchAt fails every scan read of one chosen experiment with a transient
// error, so that experiment burns its retry budget and is logged "failed".
type glitchAt struct {
	target.Operations
	exp, cur int
}

func (g *glitchAt) SeedExperiment(_ int64, experiment, _ int) { g.cur = experiment }

func (g *glitchAt) ReadScanChain(chain string) (scan.Bits, error) {
	if g.cur == g.exp {
		return scan.Bits{}, target.Transient(errors.New("glitch"))
	}
	return g.Operations.ReadScanChain(chain)
}

// TestRowsWithoutCapturedState pins the bytes of rows whose experiment
// captured no state: each logs the empty vector's encoding.
func TestRowsWithoutCapturedState(t *testing.T) {
	empty := (&StateVector{}).Encode()
	checkRow := func(t *testing.T, store *dbase.Store, name, reason string) {
		t.Helper()
		row, err := store.GetExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		if row.TerminationReason != reason || !bytes.Equal(row.StateVector, empty) {
			t.Fatalf("%s: reason %q state %x, want %q and %x", name, row.TerminationReason, row.StateVector, reason, empty)
		}
	}

	t.Run("failed", func(t *testing.T) {
		c := scifiCampaign("nostate-failed", 3)
		c.RetryLimit = 1
		ops, store := newEnv(t)
		if _, err := NewRunner(&glitchAt{Operations: ops, exp: 1, cur: -2}, store, c).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkRow(t, store, c.Name+"/e0001", TermFailed)
	})

	t.Run("hang", func(t *testing.T) {
		c := scifiCampaign("nostate-hang", 3)
		c.ExperimentTimeout = 100 * time.Millisecond
		ops, store := newEnv(t)
		r := NewRunner(&hangAt{Operations: ops, hangExp: 1, cur: -2}, store, c)
		r.Factory = target.FactoryFunc(func() (target.Operations, error) { return target.NewDefaultThorTarget(), nil })
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkRow(t, store, c.Name+"/e0001", TermHang)
	})

	t.Run("custom-nil-state", func(t *testing.T) {
		const tech = "test-nil-state"
		if !slices.Contains(Techniques(), tech) {
			err := RegisterTechnique(tech, func(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
				if err := prepare(ops, c); err != nil {
					return Experiment{}, err
				}
				term, err := ops.WaitForTermination(target.TerminationSpec{MaxCycles: c.Workload.MaxCycles})
				return Experiment{Plan: plan, Term: term}, err
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		c := scifiCampaign("nostate-custom", 2)
		c.Technique = tech
		ops, store := newEnv(t)
		if _, err := NewRunner(ops, store, c).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkRow(t, store, c.Name+RefSuffix, target.TerminWorkloadEnd.String())
		checkRow(t, store, c.Name+"/e0000", target.TerminWorkloadEnd.String())
	})
}
