package goofi

import (
	"context"
	"strings"
	"testing"
)

// TestPublicAPIPipeline drives the whole tool through the facade only:
// configure → set up → inject → analyse, the four phases of paper §3.
func TestPublicAPIPipeline(t *testing.T) {
	ops := NewThorTarget()
	db, err := NewMemoryDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTarget(db, ops, "facade test target"); err != nil {
		t.Fatal(err)
	}

	c := Campaign{
		Name:           "facade",
		Workload:       MustWorkload("bubblesort"),
		Technique:      TechSCIFI,
		Model:          Model{Kind: Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   12,
		Seed:           2,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}
	var events int
	sum, err := RunCampaign(context.Background(), ops, db, c, func(Progress) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 12 || events != 13 {
		t.Fatalf("completed=%d events=%d", sum.Completed, events)
	}

	rep, err := Analyze(db, "facade")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 12 {
		t.Fatalf("report total = %d", rep.Total)
	}
	if !strings.Contains(rep.String(), "Detected errors") {
		t.Fatal("report format broken")
	}

	sql := GenerateAnalysisSQL("facade")
	if err := db.DB().ExecScript(sql); err != nil {
		t.Fatalf("generated SQL: %v", err)
	}
}

func TestFacadeInventories(t *testing.T) {
	ws := Workloads()
	if len(ws) != 5 {
		t.Fatalf("workloads = %v", ws)
	}
	if _, err := GetWorkload("control"); err != nil {
		t.Fatal(err)
	}
	if _, err := GetWorkload("zz"); err == nil {
		t.Fatal("unknown workload should fail")
	}
	techs := Techniques()
	if len(techs) < 5 {
		t.Fatalf("techniques = %v", techs)
	}
	if len(EDMs()) != 10 {
		t.Fatalf("EDMs = %v", EDMs())
	}
}

func TestMustWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustWorkload should panic on unknown names")
		}
	}()
	MustWorkload("definitely-not-a-workload")
}

func TestFacadeLivenessAndPropagation(t *testing.T) {
	a, err := AnalyzeLiveness(NewThorTarget(), MustWorkload("bubblesort"))
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxCycle() == 0 {
		t.Fatal("liveness analysis empty")
	}
	p := LivePlanner(a, Model{Kind: Transient})
	if p == nil {
		t.Fatal("nil planner")
	}

	// Detail campaign through the facade, then propagation analysis.
	ops := NewThorTarget()
	db, err := NewMemoryDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTarget(db, ops, "t"); err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Name:           "facade-detail",
		Workload:       MustWorkload("crc16"),
		Technique:      TechSCIFI,
		Model:          Model{Kind: Transient},
		LocationFilter: "chain:internal.core/R3", // CRC accumulator: high impact
		NExperiments:   4,
		Seed:           5,
		InjectMinTime:  100,
		InjectMaxTime:  3000,
		DetailMode:     true,
	}
	if _, err := RunCampaign(context.Background(), ops, db, c, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := db.GetExperiment("facade-detail" + RefSuffix)
	if err != nil {
		t.Fatal(err)
	}
	refSV, err := DecodeStateVector(ref.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := db.GetExperiment("facade-detail/e0000")
	if err != nil {
		t.Fatal(err)
	}
	expSV, err := DecodeStateVector(exp.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComparePropagation(refSV, expSV); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCustomTargetConfig(t *testing.T) {
	cfg := ThorConfig()
	cfg.WatchdogLimit = 4096
	ops := NewThorTargetWithConfig(cfg)
	if err := ops.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	if got := ops.Name(); got == "" {
		t.Fatal("empty target name")
	}
}

func TestRegisterEnvSimulatorAndTechnique(t *testing.T) {
	// Custom environment simulator: constant plant.
	err := RegisterEnvSimulator("facade-const", func() EnvSimulator {
		return constSim{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterEnvSimulator("facade-const", func() EnvSimulator { return constSim{} }); err == nil {
		t.Fatal("duplicate env simulator should fail")
	}

	// Custom technique: delegate to SCIFI semantics through the public
	// Algorithm type (the §2.1 extension path through the facade).
	called := 0
	algo := Algorithm(func(ops TargetOperations, c Campaign, plan Plan) (Experiment, error) {
		called++
		if err := ops.InitTestCard(); err != nil {
			return Experiment{}, err
		}
		if err := ops.LoadWorkload(c.Workload); err != nil {
			return Experiment{}, err
		}
		if err := ops.RunWorkload(); err != nil {
			return Experiment{}, err
		}
		term, err := ops.WaitForTermination(TerminationSpec{MaxCycles: c.Workload.MaxCycles})
		if err != nil {
			return Experiment{}, err
		}
		return Experiment{Plan: plan, Term: term}, nil
	})
	if err := RegisterTechnique("facade-custom", algo, nil); err != nil {
		t.Fatal(err)
	}
	ops := NewThorTarget()
	db, err := NewMemoryDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTarget(db, ops, "t"); err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Name:           "facade-custom-camp",
		Workload:       MustWorkload("bubblesort"),
		Technique:      "facade-custom",
		Model:          Model{Kind: Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   2,
		Seed:           1,
		InjectMinTime:  1,
		InjectMaxTime:  10,
	}
	sum, err := RunCampaign(context.Background(), ops, db, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 2 || called != 3 { // reference + 2 experiments
		t.Fatalf("completed=%d called=%d", sum.Completed, called)
	}
}

type constSim struct{}

func (constSim) Name() string           { return "facade-const" }
func (constSim) Step([]uint32) []uint32 { return []uint32{1, 2} }
func (constSim) Reset()                 {}

func TestFacadeSimpleTargetCampaign(t *testing.T) {
	ops := NewSimpleTarget()
	db, err := NewMemoryDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTarget(db, ops, "second target"); err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Name:           "facade-simple",
		Workload:       SimpleChecksumWorkload(),
		Technique:      TechSWIFIPre,
		Model:          Model{Kind: Transient},
		LocationFilter: "mem:0x800-0x840",
		NExperiments:   5,
		Seed:           1,
	}
	sum, err := RunCampaign(context.Background(), ops, db, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 5 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	if _, err := Analyze(db, "facade-simple"); err != nil {
		t.Fatal(err)
	}
}
