package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/scan"
	"goofi/internal/target"
)

// chaosCampaign is scifiCampaign plus the fault-tolerance knobs armed for a
// misbehaving target.
func chaosCampaign(name string, n int) Campaign {
	c := scifiCampaign(name, n)
	c.RetryLimit = 10
	c.RetryBackoff = 200 * time.Microsecond
	return c
}

// TestRetryPreservesPlanStream is the PRNG-alignment pin of the retry layer:
// a campaign over a target that transiently glitches (errors and panics, no
// hangs) must log rows bit-identical to the same campaign on a clean target —
// retries reuse the drawn plan and successful attempts are fault-free, so
// fault tolerance is invisible in the database.
func TestRetryPreservesPlanStream(t *testing.T) {
	c := chaosCampaign("retry-align", 8)

	opsClean, storeClean := newEnv(t)
	cleanSum, err := NewRunner(opsClean, storeClean, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	opsFlaky, storeFlaky := newEnv(t)
	flaky := target.NewFlaky(opsFlaky, target.FlakyConfig{ErrorRate: 0.01, PanicRate: 0.002, Seed: 7})
	sum, err := NewRunner(flaky, storeFlaky, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Retries == 0 {
		t.Fatal("chaos campaign exercised no retries; raise the rates or change the seed")
	}
	if sum.Completed != c.NExperiments || sum.Terminations[TermFailed] != 0 {
		t.Fatalf("summary = %+v, want all %d experiments recovered", sum, c.NExperiments)
	}

	clean := campaignRows(t, storeClean, c.Name)
	flakyRows := campaignRows(t, storeFlaky, c.Name)
	if len(clean) != len(flakyRows) {
		t.Fatalf("rows: clean %d, flaky %d", len(clean), len(flakyRows))
	}
	for i := range clean {
		if !reflect.DeepEqual(clean[i], flakyRows[i]) {
			t.Errorf("row %d differs:\nclean: %+v\nflaky: %+v", i, clean[i], flakyRows[i])
		}
	}
	if cleanSum.Terminations[TermHang] != 0 || cleanSum.Retries != 0 {
		t.Fatalf("clean run used fault tolerance: %+v", cleanSum)
	}
}

// TestFlakyParallelCampaignDeterministic is the acceptance pin of the chaos
// layer: a parallel campaign against targets that inject errors, panics and
// genuine hangs runs to completion (no process death, no wedge), logs hang
// terminations, and a seeded rerun is bit-identical — including which
// experiments hung.
func TestFlakyParallelCampaignDeterministic(t *testing.T) {
	cfg := target.FlakyConfig{ErrorRate: 0.01, PanicRate: 0.003, HangRate: 0.004, Seed: 11}
	run := func() (Summary, []dbase.ExperimentRow) {
		c := chaosCampaign("chaos-par", 10)
		c.Workers = 3
		c.ExperimentTimeout = 500 * time.Millisecond
		ops, store := newEnv(t)
		r := NewRunner(target.NewFlaky(ops, cfg), store, c)
		r.Factory = target.FlakyFactory(target.DefaultThorFactory(), cfg)
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sum, campaignRows(t, store, c.Name)
	}
	sum1, rows1 := run()
	sum2, rows2 := run()

	if sum1.Completed != 10 {
		t.Fatalf("summary = %+v, want 10 completed", sum1)
	}
	if sum1.Hangs == 0 || sum1.Terminations[TermHang] == 0 {
		t.Fatalf("summary = %+v, want at least one watchdog hang; tune the chaos seed", sum1)
	}
	if sum1.Quarantined == 0 {
		t.Fatalf("summary = %+v, want quarantined targets", sum1)
	}
	if sum1.Hangs != sum2.Hangs || sum1.Retries != sum2.Retries || sum1.Quarantined != sum2.Quarantined {
		t.Fatalf("fault-tolerance counters not reproducible:\nrun1: %+v\nrun2: %+v", sum1, sum2)
	}
	if len(rows1) != len(rows2) {
		t.Fatalf("rows: run1 %d, run2 %d", len(rows1), len(rows2))
	}
	hangRows := 0
	for i := range rows1 {
		if !reflect.DeepEqual(rows1[i], rows2[i]) {
			t.Errorf("row %d differs between seeded reruns:\nrun1: %+v\nrun2: %+v", i, rows1[i], rows2[i])
		}
		if rows1[i].TerminationReason == TermHang {
			hangRows++
		}
	}
	if hangRows != sum1.Hangs {
		t.Fatalf("hang rows = %d, summary hangs = %d", hangRows, sum1.Hangs)
	}
}

// hangAt wraps a target and wedges forever (select{}) on every scan read of
// one chosen experiment — a deterministic stand-in for a hung test card.
// Once wedged, the abandoned attempt still owns the instance, so late counts
// every further call the engine makes on it: the per-attempt reseed, the
// power-up reset, the detail-mode switches and the checkpoint store, the
// calls an engine that reused or reset the target would make first.
type hangAt struct {
	target.Operations
	hangExp int
	cur     int
	wedged  atomic.Bool
	late    atomic.Int32
}

func (h *hangAt) touch() {
	if h.wedged.Load() {
		h.late.Add(1)
	}
}

func (h *hangAt) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	h.touch()
	h.cur = experiment
}

func (h *hangAt) InitTestCard() error {
	h.touch()
	return h.Operations.InitTestCard()
}

func (h *hangAt) SetDetailMode(on bool) {
	h.touch()
	h.Operations.SetDetailMode(on)
}

// store forwards the checkpoint store of the wrapped target, so forking
// campaigns run on hangAt too; every call counts as a touch.
func (h *hangAt) store() target.CheckpointStore {
	h.touch()
	return h.Operations.(target.CheckpointStore)
}

func (h *hangAt) SaveCheckpointAt(id uint64) error { return h.store().SaveCheckpointAt(id) }
func (h *hangAt) RestoreCheckpointAt(id uint64) (bool, error) {
	return h.store().RestoreCheckpointAt(id)
}
func (h *hangAt) DropCheckpointAt(id uint64)             { h.store().DropCheckpointAt(id) }
func (h *hangAt) DropCheckpoints()                       { h.store().DropCheckpoints() }
func (h *hangAt) CheckpointBytes() int64                 { return h.store().CheckpointBytes() }
func (h *hangAt) ExportCheckpoint(id uint64) (any, bool) { return h.store().ExportCheckpoint(id) }
func (h *hangAt) ImportCheckpoint(id uint64, snap any) error {
	return h.store().ImportCheckpoint(id, snap)
}

func (h *hangAt) ReadScanChain(chain string) (scan.Bits, error) {
	if h.cur == h.hangExp {
		h.wedged.Store(true)
		select {}
	}
	return h.Operations.ReadScanChain(chain)
}

// countingFactory mints through an inner constructor until its budget is
// spent, then fails — and counts every mint.
type countingFactory struct {
	mu     sync.Mutex
	minted int
	budget int
	mint   func() target.Operations
}

func (f *countingFactory) New() (target.Operations, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.minted >= f.budget {
		return nil, errors.New("factory: out of targets")
	}
	f.minted++
	return f.mint(), nil
}

// TestSequentialHangQuarantinesTarget: in a sequential campaign a watchdog
// hang records a "hang" row, retires the poisoned target, and continues on a
// factory-minted replacement; every other row matches a clean run.
func TestSequentialHangQuarantinesTarget(t *testing.T) {
	c := scifiCampaign("seq-hang", 5)
	c.ExperimentTimeout = 300 * time.Millisecond

	opsClean, storeClean := newEnv(t)
	if _, err := NewRunner(opsClean, storeClean, scifiCampaign("seq-hang", 5)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ops, store := newEnv(t)
	factory := &countingFactory{budget: 8, mint: func() target.Operations { return target.NewDefaultThorTarget() }}
	r := NewRunner(&hangAt{Operations: ops, hangExp: 2, cur: -2}, store, c)
	r.Factory = factory
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 5 || sum.Hangs != 1 || sum.Quarantined != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if factory.minted != 1 {
		t.Fatalf("minted %d replacements, want 1", factory.minted)
	}

	clean := campaignRows(t, storeClean, c.Name)
	rows := campaignRows(t, store, c.Name)
	if len(rows) != len(clean) {
		t.Fatalf("rows = %d, want %d", len(rows), len(clean))
	}
	for i := range rows {
		if rows[i].ExperimentName == c.Name+"/e0002" {
			if rows[i].TerminationReason != TermHang {
				t.Errorf("hung experiment logged as %q", rows[i].TerminationReason)
			}
			continue
		}
		if !reflect.DeepEqual(rows[i], clean[i]) {
			t.Errorf("row %d (%s) differs from clean run", i, rows[i].ExperimentName)
		}
	}
}

// TestSequentialHangWithoutFactory: with no Factory to replace the poisoned
// target, the campaign aborts with a descriptive error — after logging the
// hang row, so a resume skips it.
func TestSequentialHangWithoutFactory(t *testing.T) {
	c := scifiCampaign("seq-hang-nofac", 4)
	c.ExperimentTimeout = 300 * time.Millisecond
	ops, store := newEnv(t)
	r := NewRunner(&hangAt{Operations: ops, hangExp: 1, cur: -2}, store, c)
	_, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "Factory") {
		t.Fatalf("err = %v, want a missing-Factory error", err)
	}
	row, err := store.GetExperiment(c.Name + "/e0001")
	if err != nil || row.TerminationReason != TermHang {
		t.Fatalf("hang row = %+v, %v", row, err)
	}
}

// TestHungTargetReceivesNoFurtherCall: once an attempt wedges on the
// runner's own target in a sequential campaign, plain or forking, the
// engine never calls that instance again — not for the next experiment, not
// for its checkpoint store and not for the closing detail-mode reset —
// whether a Factory replaces it or the campaign ends.
func TestHungTargetReceivesNoFurtherCall(t *testing.T) {
	for _, fork := range []bool{false, true} {
		for _, withFactory := range []bool{false, true} {
			name := fmt.Sprintf("factory=%v", withFactory)
			if fork {
				name = "fork," + name
			}
			t.Run(name, func(t *testing.T) {
				c := scifiCampaign("hung-untouched", 4)
				c.ExperimentTimeout = 300 * time.Millisecond
				c.Fork = fork
				ops, store := newEnv(t)
				// Experiment 2 is neither first nor last in either execution
				// order (plain runs 0, 1, 2, 3; forking runs 0, 3, 2, 1), so
				// work is left when it wedges.
				h := &hangAt{Operations: ops, hangExp: 2, cur: -2}
				r := NewRunner(h, store, c)
				if withFactory {
					r.Factory = target.DefaultThorFactory()
				}
				sum, err := r.Run(context.Background())
				if withFactory && (err != nil || sum.Completed != c.NExperiments) {
					t.Fatalf("summary = %+v, err = %v", sum, err)
				}
				if !withFactory && (err == nil || !strings.Contains(err.Error(), "no Runner.Factory is set")) {
					t.Fatalf("err = %v, want the missing-Factory error", err)
				}
				if !h.wedged.Load() {
					t.Fatal("the target never wedged")
				}
				if n := h.late.Load(); n != 0 {
					t.Fatalf("the hung target received %d calls after it wedged", n)
				}
			})
		}
	}
}

// hangAlways wedges on the first scan read of every experiment.
type hangAlways struct{ target.Operations }

func (h *hangAlways) ReadScanChain(chain string) (scan.Bits, error) {
	select {}
}

// TestParallelQuarantineReplacesWorkerTargets: a hang on one experiment in
// the pool retires that worker's target and mints a replacement; the
// campaign completes with every other row clean.
func TestParallelQuarantineReplacesWorkerTargets(t *testing.T) {
	c := scifiCampaign("par-quarantine", 8)
	c.Workers = 2
	c.ExperimentTimeout = 300 * time.Millisecond

	ops, store := newEnv(t)
	factory := &countingFactory{budget: 100, mint: func() target.Operations {
		return &hangAt{Operations: target.NewDefaultThorTarget(), hangExp: 3, cur: -2}
	}}
	r := NewRunner(ops, store, c)
	r.Factory = factory
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 8 || sum.Hangs != 1 || sum.Quarantined != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if factory.minted != c.Workers+1 {
		t.Fatalf("minted %d targets, want %d workers + 1 replacement", factory.minted, c.Workers)
	}
	rows := campaignRows(t, store, c.Name)
	if len(rows) != c.NExperiments+1 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestParallelDegradesWhenFactoryExhausted: when every worker loses its
// target and no replacement can be minted, the campaign reports the loss
// (rather than wedging) with the hang rows logged — and a re-run with a
// healthy factory resumes past them.
func TestParallelDegradesWhenFactoryExhausted(t *testing.T) {
	c := scifiCampaign("par-degrade", 6)
	c.Workers = 2
	c.ExperimentTimeout = 300 * time.Millisecond

	ops, store := newEnv(t)
	factory := &countingFactory{budget: 2, mint: func() target.Operations {
		return &hangAlways{Operations: target.NewDefaultThorTarget()}
	}}
	r := NewRunner(ops, store, c)
	r.Factory = factory
	sum, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "workers lost") {
		t.Fatalf("err = %v, want an all-workers-lost error", err)
	}
	if sum.Hangs != 2 || sum.Quarantined != 2 {
		t.Fatalf("summary = %+v", sum)
	}

	// Resume with a healthy factory: hang rows are skipped, the rest runs.
	ops2 := target.NewDefaultThorTarget()
	r2 := NewRunner(ops2, store, c)
	r2.Factory = target.DefaultThorFactory()
	sum2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != 2 || sum2.Completed != 4 {
		t.Fatalf("resume summary = %+v", sum2)
	}
	rows := campaignRows(t, store, c.Name)
	if len(rows) != c.NExperiments+1 {
		t.Fatalf("rows = %d, want %d", len(rows), c.NExperiments+1)
	}
}

// startCounter wraps a target and counts, in a counter shared across a pool,
// the experiments started on it (first attempts, reference run excluded).
type startCounter struct {
	target.Operations
	n *atomic.Int32
}

func (c startCounter) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	if attempt == 0 && experiment >= 0 {
		c.n.Add(1)
	}
}

// errDiskFull is failingStore's permanent failure.
var errDiskFull = errors.New("store: disk full")

// failingStore wraps a CampaignStore and fails PutExperiments on a schedule:
// the first failFirst calls fail transiently; every call after call number
// permanentAfter (when > 0) fails permanently. It records the names of the
// rows it acknowledged.
type failingStore struct {
	CampaignStore
	mu             sync.Mutex
	calls          int
	failFirst      int
	permanentAfter int
	acked          []string
}

func (s *failingStore) PutExperiments(rows []dbase.ExperimentRow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.failFirst {
		return target.Transient(errors.New("store: connection glitch"))
	}
	if s.permanentAfter > 0 && s.calls > s.permanentAfter {
		return errDiskFull
	}
	if err := s.CampaignStore.PutExperiments(rows); err != nil {
		return err
	}
	for _, row := range rows {
		s.acked = append(s.acked, row.ExperimentName)
	}
	return nil
}

func (s *failingStore) ackedNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.acked...)
}

// TestParallelFlushRetriesTransientStore: a store whose batched insert
// glitches transiently must not lose rows at any pool width, the one-worker
// (sequential) pool included — the logging stage keeps its batch and retries
// with backoff.
func TestParallelFlushRetriesTransientStore(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			c := scifiCampaign("flush-retry", 10)
			c.Workers = w
			ops, store := newEnv(t)
			fs := &failingStore{CampaignStore: store, failFirst: 2}
			r := NewRunner(ops, fs, c)
			r.Factory = target.DefaultThorFactory()
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Completed != c.NExperiments {
				t.Fatalf("summary = %+v", sum)
			}
			if fs.calls < 3 {
				t.Fatalf("store calls = %d, want the failed attempts plus a success", fs.calls)
			}
			rows := campaignRows(t, store, c.Name)
			if len(rows) != c.NExperiments+1 {
				t.Fatalf("rows = %d, want %d — the retried batch lost rows", len(rows), c.NExperiments+1)
			}
		})
	}
}

// TestParallelStoreFailureThenResume: a mid-campaign permanent store failure
// halts dispatch and aborts the run with the store's error at every pool
// width; every row the store acknowledged is kept, and re-running against
// the recovered store resumes to rows bit-identical to an uninterrupted
// campaign.
func TestParallelStoreFailureThenResume(t *testing.T) {
	// The first batched insert lands and every later one fails. At most
	// 2×maxLogBatch rows are accepted and not yet acknowledged, and the
	// first batch holds at most maxLogBatch rows, so a pool of W that stops
	// dispatching at the failure starts at most 3×maxLogBatch+W of these.
	const n = 4 * maxLogBatch
	c := scifiCampaign("store-crash", n)
	_, storeRef := newEnv(t)
	if _, err := NewRunner(target.NewDefaultThorTarget(), storeRef, c).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := campaignRows(t, storeRef, c.Name)

	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			c := c
			c.Workers = w
			ops, store := newEnv(t)
			var started atomic.Int32
			fs := &failingStore{CampaignStore: store, permanentAfter: 1}
			r := NewRunner(startCounter{ops, &started}, fs, c)
			r.Factory = target.FactoryFunc(func() (target.Operations, error) {
				return startCounter{target.NewDefaultThorTarget(), &started}, nil
			})
			_, err := r.Run(context.Background())
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("err = %v, want the store failure", err)
			}
			if got := int(started.Load()); got > 3*maxLogBatch+w {
				t.Fatalf("%d of %d experiments started after the store failed: dispatch did not stop", got, n)
			}
			logged, err := store.ExperimentNames(c.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range fs.ackedNames() {
				if !logged[name] {
					t.Errorf("acknowledged row %s is not in the store", name)
				}
			}

			r2 := NewRunner(target.NewDefaultThorTarget(), store, c)
			r2.Factory = target.DefaultThorFactory()
			sum2, err := r2.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum2.Skipped+sum2.Completed != c.NExperiments {
				t.Fatalf("resume summary = %+v", sum2)
			}
			got := campaignRows(t, store, c.Name)
			if len(got) != len(want) {
				t.Fatalf("rows = %d, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("row %d (%s) differs from the uninterrupted run", i, want[i].ExperimentName)
				}
			}
		})
	}
}

// TestValidateUnboundedWorkloadNeedsWatchdog: a workload with no cycle budget
// is only acceptable when the wall-clock watchdog bounds experiments instead.
func TestValidateUnboundedWorkloadNeedsWatchdog(t *testing.T) {
	ops, _ := newEnv(t)
	c := scifiCampaign("unbounded", 5)
	c.Workload.MaxCycles = 0
	if err := c.Validate(ops); err == nil || !strings.Contains(err.Error(), "ExperimentTimeout") {
		t.Fatalf("err = %v, want the unbounded-budget rejection", err)
	}
	c.ExperimentTimeout = time.Second
	if err := c.Validate(ops); err != nil {
		t.Fatalf("watchdog-backed unbounded workload should validate: %v", err)
	}

	bad := scifiCampaign("neg", 5)
	bad.RetryLimit = -1
	if err := bad.Validate(ops); err == nil {
		t.Fatal("negative RetryLimit must be rejected")
	}
	bad = scifiCampaign("neg2", 5)
	bad.ExperimentTimeout = -time.Second
	if err := bad.Validate(ops); err == nil {
		t.Fatal("negative ExperimentTimeout must be rejected")
	}
}
