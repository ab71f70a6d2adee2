package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// runCampaign executes one campaign configuration into a fresh store and
// returns the summary plus the logged rows.
func runCampaign(t *testing.T, c Campaign, configure func(*Runner)) (Summary, []dbase.ExperimentRow) {
	t.Helper()
	ops, store := newEnv(t)
	r := NewRunner(ops, store, c)
	if configure != nil {
		configure(r)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum, campaignRows(t, store, c.Name)
}

// requireSameRows pins byte-identity of two campaign row sets, state vectors
// included.
func requireSameRows(t *testing.T, want, got []dbase.ExperimentRow, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: row %d (%s) differs:\nplain:  %+v\nforked: %+v",
				label, i, want[i].ExperimentName, want[i], got[i])
		}
	}
}

// TestForkedCampaignMatchesSequential is the central identity contract of
// checkpoint forking: a forked run — sequential and with 4 workers — logs
// experiment rows and state-vector encodings bit-identical to the plain
// engine, because forking reorders execution, never the seeded plan stream.
func TestForkedCampaignMatchesSequential(t *testing.T) {
	c := scifiCampaign("fork-det", 12)
	_, plain := runCampaign(t, c, nil)

	cf := c
	cf.Fork = true
	rec := obsv.New(obsv.Options{})
	sum, forked := runCampaign(t, cf, func(r *Runner) { r.Recorder = rec })
	if sum.Completed != c.NExperiments {
		t.Fatalf("forked completed = %d, want %d", sum.Completed, c.NExperiments)
	}
	requireSameRows(t, plain, forked, "sequential fork")
	reg := rec.Registry()
	if reg.Counter("fork.checkpoints.saved").Value() == 0 {
		t.Error("no checkpoints harvested")
	}
	// Every first-injection time is harvested, so each experiment imports its
	// own checkpoint exactly once: all pool lookups are misses here (sharing —
	// and hence hits — appears once the budget thins the harvest).
	if misses := reg.Counter("fork.pool.misses").Value(); misses != int64(c.NExperiments) {
		t.Errorf("pool misses = %d, want %d", misses, c.NExperiments)
	}
	if reg.Counter("fork.pool.fallbacks").Value() != 0 {
		t.Error("clean forked run fell back to the plain algorithm")
	}

	cp := cf
	cp.Workers = 4
	_, forkedPar := runCampaign(t, cp, func(r *Runner) { r.Factory = target.DefaultThorFactory() })
	requireSameRows(t, plain, forkedPar, "parallel fork")
}

// TestForkedTechniquesMatchPlain covers the remaining forkable techniques:
// pre-runtime SWIFI (restore the armed cycle-0 image, inject, run), runtime
// SWIFI and pin-level injection.
func TestForkedTechniquesMatchPlain(t *testing.T) {
	cases := []struct {
		technique string
		filter    string
	}{
		{TechSWIFIPre, "mem:0x0000-0x0100"},
		{TechSWIFIRuntime, "mem:0x4000-0x4040"},
		{TechPinLevel, "chain:boundary.pins"},
	}
	for _, tc := range cases {
		t.Run(tc.technique, func(t *testing.T) {
			c := scifiCampaign("fork-"+tc.technique, 8)
			c.Technique = tc.technique
			c.LocationFilter = faultmodel.Filter(tc.filter)
			_, plain := runCampaign(t, c, nil)
			cf := c
			cf.Fork = true
			_, forked := runCampaign(t, cf, nil)
			requireSameRows(t, plain, forked, tc.technique)
		})
	}
}

// TestForkedControlWorkloadMatchesPlain forks a workload coupled to an
// environment simulator: the checkpoints carry the plant state and the
// recorder history, so the logged environment trajectories stay
// bit-identical.
func TestForkedControlWorkloadMatchesPlain(t *testing.T) {
	c := scifiCampaign("fork-ctl", 6)
	c.Workload = workload.Control()
	c.InjectMinTime = 100
	c.InjectMaxTime = 3000
	_, plain := runCampaign(t, c, nil)

	cf := c
	cf.Fork = true
	_, forked := runCampaign(t, cf, nil)
	requireSameRows(t, plain, forked, "sequential fork")

	cp := cf
	cp.Workers = 3
	_, forkedPar := runCampaign(t, cp, func(r *Runner) { r.Factory = target.DefaultThorFactory() })
	requireSameRows(t, plain, forkedPar, "parallel fork")
}

// TestForkedCheckpointMemBudget squeezes the harvest and the worker pools
// through a budget barely above one full memory image: the engine must thin
// the grid and evict imports — visibly, via the drop counter — and still
// produce identical rows through nearest-earlier restores.
func TestForkedCheckpointMemBudget(t *testing.T) {
	c := scifiCampaign("fork-mem", 10)
	_, plain := runCampaign(t, c, nil)

	cf := c
	cf.Fork = true
	cf.CheckpointEvery = 50 // dense grid to force the budget's hand
	cf.CheckpointMem = 100 << 10
	rec := obsv.New(obsv.Options{})
	_, forked := runCampaign(t, cf, func(r *Runner) { r.Recorder = rec })
	requireSameRows(t, plain, forked, "budgeted fork")
	reg := rec.Registry()
	if reg.Counter("fork.checkpoints.dropped").Value() == 0 {
		t.Error("dense grid under a tight budget dropped no checkpoints")
	}
	// Thinning makes experiments share surviving checkpoints: the pool must
	// serve repeat restores from its LRU cache.
	if reg.Counter("fork.pool.hits").Value() == 0 {
		t.Error("shared checkpoints produced no pool hits")
	}
}

// TestForkedQuarantineInvalidatesPool is the satellite-1 regression: a forked
// campaign over hang-injecting targets must quarantine wedged instances, and
// the replacement's checkpoint pool is rebuilt from the golden source — never
// from state cached on the poisoned target — so every experiment that escaped
// the chaos logs a row identical to a clean run's. Hang-only chaos makes the
// comparison exact: an attempt either wedges (row excluded as "hang") or runs
// completely clean.
func TestForkedQuarantineInvalidatesPool(t *testing.T) {
	c := scifiCampaign("fork-quar", 16)
	cf := c
	cf.Fork = true
	cf.Workers = 2
	cf.ExperimentTimeout = 500 * time.Millisecond

	_, clean := runCampaign(t, c, nil)
	cleanByName := make(map[string]dbase.ExperimentRow, len(clean))
	for _, row := range clean {
		cleanByName[row.ExperimentName] = row
	}

	// Chaos on the workers only: the coordinator's golden run stays clean,
	// the worker targets wedge with seeded probability and block forever —
	// only the watchdog moves the campaign on.
	cfg := target.FlakyConfig{HangRate: 0.004, Seed: 11}
	ops, store := newEnv(t)
	r := NewRunner(ops, store, cf)
	r.Factory = target.FlakyFactory(target.DefaultThorFactory(), cfg)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Quarantined == 0 {
		t.Fatal("no target was quarantined; raise HangRate or change the seed")
	}
	if sum.Hangs == 0 || sum.Hangs >= c.NExperiments {
		t.Fatalf("hangs = %d of %d", sum.Hangs, c.NExperiments)
	}
	rows := campaignRows(t, store, cf.Name)
	compared := 0
	for _, row := range rows {
		if row.TerminationReason == TermHang {
			continue
		}
		want, ok := cleanByName[row.ExperimentName]
		if !ok {
			t.Fatalf("unexpected row %s", row.ExperimentName)
		}
		if !reflect.DeepEqual(want, row) {
			t.Errorf("row %s differs from the clean run after quarantine:\nclean: %+v\nchaos: %+v",
				row.ExperimentName, want, row)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("every experiment hung; nothing compared")
	}
}

// TestForkedGoldenSaveChaosDegradesToCoverage runs a forked campaign on a
// chaos-wrapped target that injects transient errors into every operation,
// including checkpoint saves. The reference run touches every harvest
// candidate, so treating a failed save as fatal would fail the golden run
// with near certainty; instead a transiently failed save must only cost
// coverage — the candidate is skipped, experiments keyed there restore the
// nearest earlier checkpoint, and the rows still match a clean plain run.
func TestForkedGoldenSaveChaosDegradesToCoverage(t *testing.T) {
	c := scifiCampaign("fork-savechaos", 12)
	_, plain := runCampaign(t, c, nil)

	cf := c
	cf.Fork = true
	cf.RetryLimit = 30
	rec := obsv.New(obsv.Options{})
	ops, store := newEnv(t)
	r := NewRunner(target.NewFlaky(ops, target.FlakyConfig{ErrorRate: 0.1, Seed: 4}), store, cf)
	r.Recorder = rec
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != c.NExperiments {
		t.Fatalf("completed = %d, want %d", sum.Completed, c.NExperiments)
	}
	requireSameRows(t, plain, campaignRows(t, store, cf.Name), "save-chaos fork")
	if rec.Registry().Counter("fork.checkpoints.skipped").Value() == 0 {
		t.Error("no save failed transiently; raise ErrorRate or change the seed")
	}
}

// TestForkedGoldenRunHangRemints wedges the runner's own target under the
// reference run, plain and forking (where it doubles as the golden run and
// touches every harvest candidate, so hang chaos hits it with high
// probability). With a Factory the engine must quarantine the wedged target,
// re-mint and rerun the reference, and continue on the replacement — still
// producing rows identical to a clean plain campaign.
func TestForkedGoldenRunHangRemints(t *testing.T) {
	c := scifiCampaign("fork-goldhang", 8)
	_, plain := runCampaign(t, c, nil)

	for _, fork := range []bool{false, true} {
		t.Run(fmt.Sprintf("fork=%v", fork), func(t *testing.T) {
			cf := c
			cf.Fork = fork
			cf.RetryLimit = 20
			cf.ExperimentTimeout = 300 * time.Millisecond
			ops, store := newEnv(t)
			// Hang chaos on the runner's own target only; replacements
			// minted from the clean factory finish the reference and the
			// campaign.
			r := NewRunner(target.NewFlaky(ops, target.FlakyConfig{HangRate: 0.05, Seed: 2}), store, cf)
			r.Factory = target.DefaultThorFactory()
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Quarantined == 0 || sum.Hangs == 0 {
				t.Fatalf("reference run never hung (quarantined=%d hangs=%d); change the seed", sum.Quarantined, sum.Hangs)
			}
			requireSameRows(t, plain, campaignRows(t, store, cf.Name), "reference-hang run")
		})
	}
}

// TestForkedResumeAfterStop stops a forked parallel campaign mid-flight and
// resumes it: the golden run is re-executed for its checkpoints, completed
// experiments are skipped with the plan stream kept aligned, and the final
// rows match an uninterrupted plain run.
func TestForkedResumeAfterStop(t *testing.T) {
	const n = 20
	c := scifiCampaign("fork-resume", n)
	_, clean := runCampaign(t, c, nil)

	cf := c
	cf.Fork = true
	cf.Workers = 4
	ops, store := newEnv(t)
	r := NewRunner(ops, store, cf)
	r.Factory = target.DefaultThorFactory()
	var stopOnce sync.Once
	r.OnProgress = func(p Progress) {
		if p.Done >= 6 {
			stopOnce.Do(r.Stop)
		}
	}
	sum, err := r.Run(context.Background())
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if sum.Completed == 0 || sum.Completed >= n {
		t.Fatalf("stopped campaign completed %d of %d", sum.Completed, n)
	}

	r2 := NewRunner(target.NewDefaultThorTarget(), store, cf)
	r2.Factory = target.DefaultThorFactory()
	sum2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed+sum2.Completed != n {
		t.Fatalf("split %d + %d, want %d total", sum.Completed, sum2.Completed, n)
	}
	requireSameRows(t, clean, campaignRows(t, store, c.Name), "resumed fork")
}

// TestForkValidation covers the configuration fence around Campaign.Fork.
func TestForkValidation(t *testing.T) {
	ops := target.NewDefaultThorTarget()
	if err := ops.InitTestCard(); err != nil {
		t.Fatal(err)
	}

	good := scifiCampaign("fork-ok", 4)
	good.Fork = true
	if err := good.Validate(ops); err != nil {
		t.Fatalf("forked SCIFI campaign rejected: %v", err)
	}

	bad := good
	bad.Technique = TechSCIFICheckpoint
	if err := bad.Validate(ops); err == nil {
		t.Error("fork + scifi-checkpoint must be rejected")
	}
	bad = good
	bad.Technique = TechSCIFITriggered
	bad.TriggerSpec = "branch"
	if err := bad.Validate(ops); err == nil {
		t.Error("fork + scifi-triggered must be rejected")
	}
	bad = good
	bad.DetailMode = true
	if err := bad.Validate(ops); err == nil {
		t.Error("fork + detail mode must be rejected")
	}
	bad = good
	bad.CheckpointMem = -1
	if err := bad.Validate(ops); err == nil {
		t.Error("negative checkpoint budget must be rejected")
	}
}
