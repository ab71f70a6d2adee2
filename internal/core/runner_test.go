package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/workload"
)

func newStoreT(t *testing.T) *dbase.Store {
	t.Helper()
	s, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newEnv builds a registered target + store pair.
func newEnv(t *testing.T) (*target.ThorTarget, *dbase.Store) {
	t.Helper()
	ops := target.NewDefaultThorTarget()
	store := newStoreT(t)
	if err := RegisterTarget(store, ops, "simulated Thor RD"); err != nil {
		t.Fatal(err)
	}
	return ops, store
}

func scifiCampaign(name string, n int) Campaign {
	return Campaign{
		Name:           name,
		Workload:       workload.BubbleSort(),
		Technique:      TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   n,
		Seed:           1,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}
}

// TestRegisterTargetCommits pins the WAL commits of a fresh strict store's
// open plus RegisterTarget: the schema is one batch and the target row with
// its whole inventory another, two fsyncs in all (eleven when every
// statement was its own commit). A reopen installs no table and commits
// nothing, and registering again is one commit.
func TestRegisterTargetCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.db")
	store, err := dbase.OpenStoreWAL(path, sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := target.NewDefaultThorTarget()
	if err := RegisterTarget(store, ops, "simulated Thor RD"); err != nil {
		t.Fatal(err)
	}
	locs, err := store.FaultLocations(ops.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 546 {
		t.Fatalf("locations = %d, want 546", len(locs))
	}
	if got := store.DB().WALStats().Fsyncs; got != 2 {
		t.Fatalf("fresh open plus registering %d locations cost %d fsyncs, want 2", len(locs), got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = dbase.OpenStoreWAL(path, sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.DB().WALStats().Fsyncs; got != 0 {
		t.Fatalf("reopen cost %d fsyncs, want 0", got)
	}
	if err := RegisterTarget(store, ops, "again"); err != nil {
		t.Fatal(err)
	}
	if got := store.DB().WALStats().Fsyncs; got != 1 {
		t.Fatalf("re-registration cost %d fsyncs, want 1", got)
	}
}

func TestRegisterTargetRows(t *testing.T) {
	ops, store := newEnv(t)
	ts, err := store.GetTargetSystem(ops.Name())
	if err != nil {
		t.Fatal(err)
	}
	if ts.MemSize != 64*1024 || ts.ROMSize != 16*1024 {
		t.Fatalf("target = %+v", ts)
	}
	locs, err := store.FaultLocations(ops.Name())
	if err != nil {
		t.Fatal(err)
	}
	// 21 core fields + 4*64 icache + 4*64 dcache + 10 debug + 3 boundary.
	want := 21 + 256 + 256 + 10 + 3
	if len(locs) != want {
		t.Fatalf("locations = %d, want %d", len(locs), want)
	}
	byName := map[string]dbase.LocationRow{}
	for _, l := range locs {
		byName[l.LocationName] = l
	}
	r3 := byName["internal.core/R3"]
	if r3.Width != 32 || r3.FirstBit != 96 || !r3.Writable {
		t.Fatalf("R3 = %+v", r3)
	}
	cyc := byName["internal.debug/cycles"]
	if cyc.Writable || cyc.Width != 64 {
		t.Fatalf("cycles = %+v", cyc)
	}
}

func TestCampaignRowRoundTrip(t *testing.T) {
	c := scifiCampaign("rt", 5)
	c.TriggerSpec = "branch:2"
	c.DetailMode = true
	c.Notes = "note"
	row := c.Row("thor-rd")
	got, err := CampaignFromRow(row)
	if err != nil {
		t.Fatal(err)
	}
	// The workload spec is resolved by name, so compare the row forms.
	if got.Row("thor-rd") != row {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got.Row("thor-rd"), row)
	}
	if _, err := CampaignFromRow(dbase.CampaignRow{Workload: "nope", FaultModel: "transient"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
	if _, err := CampaignFromRow(dbase.CampaignRow{Workload: "bubblesort", FaultModel: "zz"}); err == nil {
		t.Fatal("bad model should fail")
	}
}

func TestCampaignValidate(t *testing.T) {
	ops, _ := newEnv(t)
	good := scifiCampaign("v", 5)
	if err := good.Validate(ops); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Campaign){
		func(c *Campaign) { c.Name = "" },
		func(c *Campaign) { c.NExperiments = 0 },
		func(c *Campaign) { c.InjectMinTime = 10; c.InjectMaxTime = 5 },
		func(c *Campaign) { c.Technique = "bogus" },
		func(c *Campaign) { c.Model = faultmodel.Model{Kind: faultmodel.TransientMultiple} },
		func(c *Campaign) { c.LocationFilter = "chain:nope" },
		func(c *Campaign) { c.LocationFilter = "mem:0x4000-0x4100" }, // SCIFI can't reach memory
		func(c *Campaign) { c.Workload.Source = "" },
		func(c *Campaign) { c.Technique = TechSCIFITriggered }, // missing trigger
		func(c *Campaign) { c.Technique = TechSCIFITriggered; c.TriggerSpec = "zz" },
		func(c *Campaign) { c.Technique = TechSWIFIPre }, // scan filter with SWIFI
		func(c *Campaign) { c.Technique = TechPinLevel }, // core chain is not pins
	}
	for i, mutate := range cases {
		c := scifiCampaign("v", 5)
		mutate(&c)
		if err := c.Validate(ops); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestTechniqueRegistry(t *testing.T) {
	names := Techniques()
	for _, want := range []string{TechSCIFI, TechSWIFIPre, TechSWIFIRuntime, TechPinLevel, TechSCIFITriggered} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("technique %s missing from %v", want, names)
		}
	}
	if err := RegisterTechnique(TechSCIFI, faultInjectorSCIFI, nil); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if err := RegisterTechnique("", nil, nil); err == nil {
		t.Fatal("empty registration should fail")
	}
	// A custom technique registers and validates (the §2.1 extension path).
	// The registry is process-wide, so every run of the test (-count) takes
	// a name no earlier run registered.
	custom := func(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
		return faultInjectorSCIFI(ops, c, plan)
	}
	if err := RegisterTechnique(fmt.Sprintf("custom-test-technique-%d", len(Techniques())), custom, nil); err != nil {
		t.Fatal(err)
	}
}

// freshProcessEnv marks the re-executed test binary of
// TestBuiltinsRegisteredAtInit.
const freshProcessEnv = "GOOFI_CORE_FRESH_PROCESS"

// TestBuiltinsRegisteredAtInit pins that the built-in techniques and
// environment simulators exist from package initialisation: a fresh process
// that has built no runner and loaded no workload lists all six techniques
// and can instantiate a built-in simulator.
func TestBuiltinsRegisteredAtInit(t *testing.T) {
	if os.Getenv(freshProcessEnv) == "1" {
		want := []string{TechPinLevel, TechSCIFI, TechSCIFICheckpoint, TechSCIFITriggered, TechSWIFIPre, TechSWIFIRuntime}
		if got := Techniques(); !reflect.DeepEqual(got, want) {
			t.Fatalf("techniques in a fresh process = %v, want %v", got, want)
		}
		if _, err := envsim.New("pendulum"); err != nil {
			t.Fatalf("envsim in a fresh process: %v", err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuiltinsRegisteredAtInit$", "-test.count=1")
	cmd.Env = append(os.Environ(), freshProcessEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
}

func TestSCIFICampaignEndToEnd(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-scifi", 25)
	r := NewRunner(ops, store, c)
	var progress []Progress
	r.OnProgress = func(p Progress) { progress = append(progress, p) }

	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 25 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	// Progress: 1 reference + 25 experiments.
	if len(progress) != 26 || progress[25].Done != 25 {
		t.Fatalf("progress events = %d", len(progress))
	}
	// The DB holds the campaign row, the reference run and 25 experiments.
	if _, err := store.GetCampaign("camp-scifi"); err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments("camp-scifi")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 26 {
		t.Fatalf("experiments = %d", len(exps))
	}
	ref, err := store.GetExperiment("camp-scifi" + RefSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TerminationReason != "workload-end" {
		t.Fatalf("reference = %+v", ref)
	}
	refSV, err := DecodeStateVector(ref.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	if len(refSV.Chains) != 5 || len(refSV.Memory) != 16 {
		t.Fatalf("ref state: chains=%d mem=%d", len(refSV.Chains), len(refSV.Memory))
	}
	// Reference memory must be the sorted array.
	for i, mw := range refSV.Memory {
		if mw.Value != uint32(i+1) {
			t.Fatalf("ref memory[%d] = %d", i, mw.Value)
		}
	}
	// Termination reasons must cover more than one class across 25 random
	// register faults (some detected or wrong, some benign).
	if len(sum.Terminations) < 1 || sum.Completed != 25 {
		t.Fatalf("summary = %+v", sum)
	}
	// Every experiment decodes and carries plan metadata.
	for _, e := range exps {
		if _, err := DecodeStateVector(e.StateVector); err != nil {
			t.Fatalf("experiment %s: %v", e.ExperimentName, err)
		}
		if !strings.Contains(e.ExperimentData, "plan=[") {
			t.Fatalf("experimentData = %q", e.ExperimentData)
		}
	}
}

func TestSCIFICampaignDeterministicForSeed(t *testing.T) {
	run := func(name string) []dbase.ExperimentRow {
		ops, store := newEnv(t)
		r := NewRunner(ops, store, scifiCampaign(name, 8))
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		exps, err := store.Experiments(name)
		if err != nil {
			t.Fatal(err)
		}
		return exps
	}
	a := run("det")
	b := run("det")
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].ExperimentData != b[i].ExperimentData ||
			a[i].TerminationReason != b[i].TerminationReason ||
			string(a[i].StateVector) != string(b[i].StateVector) {
			t.Fatalf("experiment %s differs between runs", a[i].ExperimentName)
		}
	}
}

func TestSWIFIPreCampaign(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-swifi", 15)
	c.Technique = TechSWIFIPre
	c.LocationFilter = "mem:0x0000-0x0100" // the sort's code area
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 15 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	// Flipping bits in code words must produce at least one detection or
	// failure across 15 experiments.
	if sum.Terminations["workload-end"] == 15 {
		exps, _ := store.Experiments("camp-swifi")
		t.Fatalf("all code faults benign? %+v (%d rows)", sum.Terminations, len(exps))
	}
}

func TestRuntimeSWIFICampaign(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-rt", 10)
	c.Technique = TechSWIFIRuntime
	c.LocationFilter = "mem:0x4000-0x4040" // the array being sorted
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 10 {
		t.Fatalf("completed = %d", sum.Completed)
	}
}

func TestPinLevelCampaign(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-pin", 5)
	c.Technique = TechPinLevel
	c.LocationFilter = "chain:boundary.pins"
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 5 {
		t.Fatalf("completed = %d", sum.Completed)
	}
}

func TestTriggeredCampaign(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-trig", 5)
	c.Technique = TechSCIFITriggered
	c.TriggerSpec = "branch:3"
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 5 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	exps, _ := store.Experiments("camp-trig")
	injectedSome := false
	for _, e := range exps {
		if strings.Contains(e.ExperimentData, "injected=1/1") {
			injectedSome = true
		}
	}
	if !injectedSome {
		t.Fatal("no triggered experiment injected its fault")
	}
}

func TestControlWorkloadCampaign(t *testing.T) {
	ops, store := newEnv(t)
	c := Campaign{
		Name:           "camp-ctl",
		Workload:       workload.Control(),
		Technique:      TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   10,
		Seed:           7,
		InjectMinTime:  100,
		InjectMaxTime:  3500,
	}
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 10 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	ref, err := store.GetExperiment("camp-ctl" + RefSuffix)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := DecodeStateVector(ref.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Env) != int(workload.Control().MaxIterations) {
		t.Fatalf("env history = %d iterations", len(sv.Env))
	}
}

func TestCampaignRowConflict(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("dup", 3)
	if _, err := NewRunner(ops, store, c).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Same name, different definition: refused.
	c2 := scifiCampaign("dup", 4)
	if _, err := NewRunner(ops, store, c2).Run(context.Background()); err == nil {
		t.Fatal("conflicting campaign should fail")
	}
}

// TestPauseResumeStop: a sequential campaign, plain or forking, pauses,
// resumes and stops between experiments with nothing in flight, so it stops
// with exactly the experiments reported done logged.
func TestPauseResumeStop(t *testing.T) {
	for _, fork := range []bool{false, true} {
		t.Run(fmt.Sprintf("fork=%v", fork), func(t *testing.T) {
			ops, store := newEnv(t)
			c := scifiCampaign("camp-ctlr", 50)
			c.Fork = fork
			r := NewRunner(ops, store, c)

			var (
				mu        sync.Mutex
				pausedAt  = -1
				resumed   = make(chan struct{})
				stopAfter = 10
			)
			r.OnProgress = func(p Progress) {
				mu.Lock()
				defer mu.Unlock()
				if p.Done == 3 && pausedAt < 0 {
					pausedAt = p.Done
					r.Pause()
					go func() {
						r.Resume()
						close(resumed)
					}()
				}
				if p.Done == stopAfter {
					r.Stop()
				}
			}
			sum, err := r.Run(context.Background())
			if !errors.Is(err, ErrStopped) {
				t.Fatalf("err = %v", err)
			}
			<-resumed
			if sum.Completed != stopAfter {
				t.Fatalf("completed = %d, want %d", sum.Completed, stopAfter)
			}
			exps, _ := store.Experiments("camp-ctlr")
			if len(exps) != stopAfter+1 { // + reference
				t.Fatalf("rows = %d", len(exps))
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-cancel", 1000)
	r := NewRunner(ops, store, c)
	ctx, cancel := context.WithCancel(context.Background())
	r.OnProgress = func(p Progress) {
		if p.Done == 5 {
			cancel()
		}
	}
	sum, err := r.Run(ctx)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	// Cancellation propagates through a watcher goroutine, so a handful of
	// further experiments may complete before the stop lands.
	if sum.Completed < 5 || sum.Completed == 1000 {
		t.Fatalf("completed = %d", sum.Completed)
	}
}

func TestDetailRerunParentTracking(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-detail", 3)
	r := NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	name, err := r.RerunDetail("camp-detail/e0001")
	if err != nil {
		t.Fatal(err)
	}
	if name != "camp-detail/e0001"+DetailSuffix {
		t.Fatalf("name = %q", name)
	}
	row, err := store.GetExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	if row.ParentExperiment != "camp-detail/e0001" {
		t.Fatalf("parent = %q", row.ParentExperiment)
	}
	sv, err := DecodeStateVector(row.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Trace) == 0 {
		t.Fatal("detail rerun produced no trace")
	}
	// The rerun must reproduce the original execution: same termination.
	orig, _ := store.GetExperiment("camp-detail/e0001")
	if row.TerminationReason != orig.TerminationReason || row.Cycles != orig.Cycles {
		t.Fatalf("rerun diverged: %+v vs %+v", row, orig)
	}
	// Detail reruns of unknown experiments fail.
	if _, err := r.RerunDetail("camp-detail/e9999"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestParseExperimentPlan(t *testing.T) {
	p, err := parseExperimentPlan("plan=[t=5 flip scan:internal.core:3] injected=1/1")
	if err != nil || len(p.Injections) != 1 || p.Injections[0].Time != 5 {
		t.Fatalf("plan = %+v, %v", p, err)
	}
	p, err = parseExperimentPlan("plan=[] injected=0/0")
	if err != nil || len(p.Injections) != 0 {
		t.Fatalf("empty plan = %+v, %v", p, err)
	}
	if _, err := parseExperimentPlan("no plan here"); err == nil {
		t.Fatal("missing plan should fail")
	}
	if _, err := parseExperimentPlan("plan=[t=5 flip scan:c:1"); err == nil {
		t.Fatal("unterminated plan should fail")
	}
}

func TestReferenceRunStateIsReproducible(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("camp-ref", 1)
	r := NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref1, _ := store.GetExperiment("camp-ref" + RefSuffix)

	ops2, store2 := newEnv(t)
	r2 := NewRunner(ops2, store2, scifiCampaign("camp-ref", 1))
	if _, err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref2, _ := store2.GetExperiment("camp-ref" + RefSuffix)
	if string(ref1.StateVector) != string(ref2.StateVector) {
		t.Fatal("reference runs differ across fresh targets")
	}
}

func TestResumeStoppedCampaign(t *testing.T) {
	// Stop a campaign part way, then re-run it: the remaining experiments
	// complete and the final database is bit-identical to an uninterrupted
	// run of the same campaign.
	runInterrupted := func() *dbase.Store {
		ops, store := newEnv(t)
		c := scifiCampaign("resume", 20)
		r := NewRunner(ops, store, c)
		r.OnProgress = func(p Progress) {
			if p.Done == 7 {
				r.Stop()
			}
		}
		if _, err := r.Run(context.Background()); !errors.Is(err, ErrStopped) {
			t.Fatalf("err = %v", err)
		}
		// Resume with a fresh runner (and a fresh target, as after a tool
		// restart).
		ops2 := target.NewDefaultThorTarget()
		r2 := NewRunner(ops2, store, c)
		sum, err := r2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed != 13 { // 20 total, 7 done before the stop
			t.Fatalf("resumed completed = %d", sum.Completed)
		}
		return store
	}
	runStraight := func() *dbase.Store {
		ops, store := newEnv(t)
		r := NewRunner(ops, store, scifiCampaign("resume", 20))
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return store
	}
	a, err := runInterrupted().Experiments("resume")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runStraight().Experiments("resume")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 21 {
		t.Fatalf("rows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ExperimentName != b[i].ExperimentName ||
			a[i].ExperimentData != b[i].ExperimentData ||
			string(a[i].StateVector) != string(b[i].StateVector) {
			t.Fatalf("experiment %s differs between resumed and straight runs", a[i].ExperimentName)
		}
	}
}

func TestRunCompletedCampaignIsNoOp(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("noop", 4)
	if _, err := NewRunner(ops, store, c).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum, err := NewRunner(ops, store, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 0 {
		t.Fatalf("re-run completed = %d", sum.Completed)
	}
	exps, _ := store.Experiments("noop")
	if len(exps) != 5 {
		t.Fatalf("rows = %d", len(exps))
	}
}

// TestSimpleTargetCampaign runs a full pre-runtime SWIFI campaign on the
// second target system through the same engine — the §2.2 porting claim
// demonstrated end to end.
func TestSimpleTargetCampaign(t *testing.T) {
	ops := target.NewSimpleTarget()
	store := newStoreT(t)
	if err := RegisterTarget(store, ops, "accumulator machine"); err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Name:           "simple-camp",
		Workload:       target.SimpleChecksumWorkload(),
		Technique:      TechSWIFIPre,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "mem:0x800-0x840", // the 16 data words at 0x200*4
		NExperiments:   20,
		Seed:           6,
		InjectMinTime:  0,
		InjectMaxTime:  0, // pre-runtime: time is irrelevant
	}
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 20 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	// SCIFI campaigns must fail validation against this target: it reports
	// no scan chains.
	bad := c
	bad.Name = "simple-scifi"
	bad.Technique = TechSCIFI
	bad.LocationFilter = "chain:internal.core"
	if err := bad.Validate(ops); err == nil {
		t.Fatal("SCIFI on the simple target should fail validation")
	}
}

func TestIntermittentCampaignInjectsRepeatedly(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("int-camp", 10)
	c.Model = faultmodel.Model{Kind: faultmodel.Intermittent, Burst: 3, BurstSpacing: 100}
	c.InjectMinTime = 10
	c.InjectMaxTime = 800 // leaves room for all three bursts within ~1570 cycles
	r := NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments("int-camp")
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, e := range exps {
		if strings.Contains(e.ExperimentData, "injected=3/3") {
			full++
		}
	}
	// Most experiments complete all three bursts (some may detect early,
	// truncating the burst).
	if full < 5 {
		t.Fatalf("only %d/10 experiments completed the burst", full)
	}
}

func TestPermanentCampaignForcesValue(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("perm-camp", 5)
	c.Model = faultmodel.Model{Kind: faultmodel.Permanent, Period: 200, StuckValue: 1}
	c.InjectMinTime = 10
	c.InjectMaxTime = 200
	r := NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments("perm-camp")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		if e.ExperimentName == "perm-camp"+RefSuffix {
			continue
		}
		if !strings.Contains(e.ExperimentData, "stuck-1") {
			t.Fatalf("experimentData lacks stuck-at op: %q", e.ExperimentData)
		}
	}
}

func TestTriggeredCampaignWithUnfirableTrigger(t *testing.T) {
	// The bubblesort workload never executes YIELD, so a task-switch
	// trigger cannot fire; experiments complete with zero injections.
	ops, store := newEnv(t)
	c := scifiCampaign("trig-none", 3)
	c.Technique = TechSCIFITriggered
	c.TriggerSpec = "taskswitch:1"
	r := NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 3 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	exps, _ := store.Experiments("trig-none")
	for _, e := range exps {
		if e.ExperimentName == "trig-none"+RefSuffix {
			continue
		}
		if !strings.Contains(e.ExperimentData, "injected=0/1") {
			t.Fatalf("expected no injection: %q", e.ExperimentData)
		}
	}
}

// TestCheckpointCampaignMatchesPlainSCIFI is the checkpoint technique's
// correctness contract: with the same seed, a checkpointed campaign logs
// bit-identical experiments to plain SCIFI — the snapshot/restore prefix
// must be observationally equivalent to re-running from reset.
func TestCheckpointCampaignMatchesPlainSCIFI(t *testing.T) {
	run := func(name, technique string, w workload.Spec, minT, maxT uint64) []dbase.ExperimentRow {
		ops, store := newEnv(t)
		c := Campaign{
			Name:           name,
			Workload:       w,
			Technique:      technique,
			Model:          faultmodel.Model{Kind: faultmodel.Transient},
			LocationFilter: "chain:internal.core",
			NExperiments:   15,
			Seed:           21,
			InjectMinTime:  minT,
			InjectMaxTime:  maxT,
		}
		if _, err := NewRunner(ops, store, c).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		exps, err := store.Experiments(name)
		if err != nil {
			t.Fatal(err)
		}
		return exps
	}
	// The control workload exercises the environment snapshot too.
	for _, wl := range []workload.Spec{workload.BubbleSort(), workload.Control()} {
		minT, maxT := uint64(400), uint64(1200)
		if !wl.TerminatesSelf {
			minT, maxT = 1000, 3500
		}
		plain := run("cp-plain-"+wl.Name, TechSCIFI, wl, minT, maxT)
		ckpt := run("cp-ckpt-"+wl.Name, TechSCIFICheckpoint, wl, minT, maxT)
		if len(plain) != len(ckpt) {
			t.Fatalf("%s: row counts differ", wl.Name)
		}
		for i := range plain {
			if plain[i].ExperimentData != ckpt[i].ExperimentData {
				t.Fatalf("%s row %d: plans differ:\n%s\nvs\n%s", wl.Name, i,
					plain[i].ExperimentData, ckpt[i].ExperimentData)
			}
			if plain[i].TerminationReason != ckpt[i].TerminationReason ||
				plain[i].Mechanism != ckpt[i].Mechanism ||
				plain[i].Cycles != ckpt[i].Cycles {
				t.Fatalf("%s row %d: terminations differ: %+v vs %+v", wl.Name, i, plain[i], ckpt[i])
			}
			if string(plain[i].StateVector) != string(ckpt[i].StateVector) {
				t.Fatalf("%s row %d: state vectors differ", wl.Name, i)
			}
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	ops, _ := newEnv(t)
	c := scifiCampaign("cp-v", 2)
	c.Technique = TechSCIFICheckpoint
	c.DetailMode = true
	if err := c.Validate(ops); err == nil {
		t.Fatal("detail mode + checkpoint should fail validation")
	}
	// A target without the capability is rejected.
	c.DetailMode = false
	simple := target.NewSimpleTarget()
	c.Workload = target.SimpleChecksumWorkload()
	c.LocationFilter = "mem:0x800-0x840"
	if err := c.Validate(simple); err == nil {
		t.Fatal("chainless/checkpointless target should fail validation")
	}
}

// TestCheckpointSavesOnceRestoresEachExperiment: with a late injection
// window, scifi-checkpoint runs the fault-free prefix once — the reference
// run finds no checkpoint and saves one — and every experiment restores it
// instead of re-running the prefix. The work is counted on a Measured
// target, so the check does not depend on the host's speed;
// BenchmarkSCIFICheckpoint measures the speedup.
func TestCheckpointSavesOnceRestoresEachExperiment(t *testing.T) {
	ops, store := newEnv(t)
	rec := obsv.New(obsv.Options{})
	c := Campaign{
		Name:           "cp-late",
		Workload:       workload.Control(),
		Technique:      TechSCIFICheckpoint,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   30,
		Seed:           4,
		InjectMinTime:  3500,
		InjectMaxTime:  4000,
	}
	if _, err := NewRunner(target.NewMeasured(ops, rec), store, c).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := map[string]int64{}
	for _, p := range rec.Snapshot().Phases {
		calls[p.Phase] = p.Count
	}
	if got := calls[obsv.PhaseCheckpointSave.String()]; got != 1 {
		t.Errorf("checkpoint saves = %d, want 1 per campaign", got)
	}
	// A restore that misses is followed by a save, so this is the
	// reference's miss plus one hit per experiment.
	if got := calls[obsv.PhaseCheckpointRestore.String()]; got != int64(c.NExperiments)+1 {
		t.Errorf("checkpoint restores = %d, want %d", got, c.NExperiments+1)
	}
}

func TestStopConditionEndsCampaignEarly(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("adaptive", 200)
	r := NewRunner(ops, store, c)
	// Stop once five detections have accumulated — a miniature version of
	// "run until the coverage estimate is confident enough".
	r.StopCondition = func(s Summary) bool {
		return s.Terminations["detected"] >= 5
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Terminations["detected"] != 5 {
		t.Fatalf("detections = %d", sum.Terminations["detected"])
	}
	if sum.Completed >= 200 {
		t.Fatalf("campaign did not stop early: %d", sum.Completed)
	}
}

func TestProgressAndSummaryContents(t *testing.T) {
	ops, store := newEnv(t)
	c := scifiCampaign("prog", 12)
	r := NewRunner(ops, store, c)
	var outcomes []string
	r.OnProgress = func(p Progress) {
		if p.Campaign != "prog" || p.Total != 12 {
			t.Errorf("progress = %+v", p)
		}
		outcomes = append(outcomes, p.LastOutcome)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(outcomes[0], "reference ") {
		t.Fatalf("first event = %q", outcomes[0])
	}
	// The summary's termination counts match the experiment rows, and every
	// detection is attributed to a mechanism.
	exps, _ := store.Experiments("prog")
	counts := map[string]int{}
	for _, e := range exps {
		if e.ExperimentName == "prog"+RefSuffix {
			continue
		}
		counts[e.TerminationReason]++
	}
	for k, v := range sum.Terminations {
		if counts[k] != v {
			t.Fatalf("summary[%s]=%d, rows=%d", k, v, counts[k])
		}
	}
	nDet := 0
	for _, v := range sum.Detections {
		nDet += v
	}
	if nDet != sum.Terminations["detected"] {
		t.Fatalf("detections %d != detected %d", nDet, sum.Terminations["detected"])
	}
}
