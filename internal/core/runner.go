package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// ErrStopped is returned by Run when the campaign was ended through Stop or
// context cancellation (Fig. 7's "end the campaign" control).
var ErrStopped = errors.New("core: campaign stopped")

// errHung is the internal sentinel the per-experiment watchdog returns. The
// target the attempt ran on is poisoned: the abandoned goroutine may still be
// executing on it, so the runner must never touch that instance again.
var errHung = errors.New("core: experiment attempt hung")

// RefSuffix and DetailSuffix name the special experiment rows.
const (
	// RefSuffix is appended to the campaign name for the reference run.
	RefSuffix = "/ref"
	// DetailSuffix is appended to an experiment name for its detail-mode
	// rerun (the parentExperiment scenario of §2.3).
	DetailSuffix = "/detail"
)

// Termination reasons synthesised by the campaign engine itself (they extend
// the target-level reasons of target.Reason in the terminationReason column).
const (
	// TermHang records an experiment whose attempt outlived the wall-clock
	// watchdog (Campaign.ExperimentTimeout): the target wedged, the campaign
	// moved on.
	TermHang = "hang"
	// TermFailed records an experiment whose attempts were all lost to
	// transient target faults (the retry budget was exhausted).
	TermFailed = "failed"
)

// refIndex is the experiment index the reference run is seeded with.
const refIndex = -1

// CampaignStore is the persistence surface the campaign runner needs —
// implemented by *dbase.Store and narrow enough for tests to wrap with
// failure-injecting decorators.
type CampaignStore interface {
	GetCampaign(name string) (dbase.CampaignRow, error)
	PutCampaign(row dbase.CampaignRow) error
	PutExperiment(row dbase.ExperimentRow) error
	PutExperiments(rows []dbase.ExperimentRow) error
	ExperimentNames(campaign string) (map[string]bool, error)
	GetExperiment(name string) (dbase.ExperimentRow, error)
}

// Progress is delivered to the progress callback after every experiment —
// the data behind the paper's progress window (Fig. 7).
type Progress struct {
	Campaign string
	// Done counts completed experiments out of Total.
	Done, Total int
	// LastOutcome summarises the most recent experiment's termination.
	LastOutcome string
	// Skipped counts experiments reused from an earlier, interrupted run.
	Skipped int
	// Detected counts experiments terminated by a detection mechanism so far
	// — Detected/Done is the live coverage proxy `goofi watch` displays.
	Detected int
	// Retries, Hangs and Quarantined mirror the running Summary's
	// fault-tolerance counters.
	Retries     int
	Hangs       int
	Quarantined int
}

// Summary reports a finished (or stopped) campaign.
type Summary struct {
	Campaign string
	// Completed is the number of fault-injection experiments logged by this
	// run, including hang/failed rows.
	Completed int
	// Skipped counts experiments found already logged and reused on resume.
	Skipped int
	// Terminations counts experiments per termination reason.
	Terminations map[string]int
	// Detections counts detected experiments per mechanism.
	Detections map[string]int
	// Retries counts experiment attempts retried after transient target
	// faults.
	Retries int
	// Hangs counts experiments the wall-clock watchdog gave up on.
	Hangs int
	// Quarantined counts target instances retired after a hang (of an
	// experiment or of the reference run).
	Quarantined int
}

// Runner executes a fault-injection campaign over a target, logging
// everything to the GOOFI database. It may be paused, resumed and stopped
// from other goroutines while Run executes (Fig. 7).
type Runner struct {
	ops      target.Operations
	store    CampaignStore
	campaign Campaign

	// OnProgress, when set, is called after the reference run and after
	// every experiment. It runs on the Run goroutine. An experiment's event
	// may come before its row is durable; Run returns only after every
	// accounted row has been acknowledged by the store.
	OnProgress func(Progress)

	// PlanFunc, when set, replaces the fault model's default sampling. The
	// pre-injection analysis (§4 extension, internal/preinject) uses it to
	// schedule injections only into live locations.
	PlanFunc func(rng *rand.Rand, locs []faultmodel.Location, minTime, maxTime, horizon uint64) (faultmodel.Plan, error)

	// StopCondition, when set, is evaluated after every experiment with the
	// running summary; returning true ends the campaign early with a nil
	// error (an adaptive alternative to a fixed NExperiments, e.g. "stop
	// once enough detections accumulated for the target confidence").
	StopCondition func(Summary) bool

	// Factory, when set, supplies independent target instances for parallel
	// execution (Campaign.Workers > 1): one target per worker, so
	// experiments share no simulator state. The runner's own ops performs
	// validation and the reference run, and is the target of a one-worker
	// (sequential) campaign, which needs no Factory. The fault-tolerance
	// layer also uses it to replace targets poisoned by a hang, whatever the
	// width; without it a hang ends a sequential campaign.
	Factory target.Factory

	// Recorder, when set, collects engine-level observability: plan drawing,
	// retry backoff and store-flush phases, per-experiment trace spans, and
	// the campaign counters/wall-clock. nil disables it at zero cost. Pair it
	// with a target.Measured wrapper (same recorder) to cover the
	// target-operation phases too.
	Recorder *obsv.Recorder

	// Events, when set, receives live CampaignEvent frames: one per
	// MonitorInterval while the campaign runs, plus a final frame whose
	// counters match the returned Summary. Run closes the broadcaster, so
	// subscribers (the /campaign/events endpoint, `goofi watch`) terminate
	// cleanly with the campaign.
	Events *obsv.Broadcaster

	// MonitorInterval is the live-monitoring sample period (events and
	// persisted interval metrics); zero means one second.
	MonitorInterval time.Duration

	// Logger, when set, receives engine-level diagnostics (campaign start,
	// quarantines, degraded worker pools) through log/slog. nil discards.
	Logger *slog.Logger

	// mon is the active run's live monitor; set and cleared by Run and only
	// touched on the Run goroutine.
	mon *monitor

	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stopped bool
}

// NewRunner builds a runner.
func NewRunner(ops target.Operations, store CampaignStore, campaign Campaign) *Runner {
	r := &Runner{ops: ops, store: store, campaign: campaign}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Pause suspends the campaign after the in-flight experiment completes.
func (r *Runner) Pause() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = true
}

// Resume continues a paused campaign.
func (r *Runner) Resume() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.paused = false
	r.cond.Broadcast()
}

// Stop ends the campaign after the in-flight experiment completes.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	r.cond.Broadcast()
}

// checkpoint blocks while paused and reports whether the campaign must stop.
func (r *Runner) checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.paused && !r.stopped {
		r.cond.Wait()
	}
	if r.stopped {
		return ErrStopped
	}
	return nil
}

// runOutcome is the fault-tolerant conclusion of one experiment: success,
// hang, exhausted retries, or a permanent error that must abort the campaign.
type runOutcome struct {
	exp     Experiment
	retries int
	// hung: the watchdog fired; the target that ran the attempt is poisoned.
	hung bool
	// failed: every attempt was lost to transient faults; the experiment is
	// recorded as TermFailed and the campaign continues.
	failed bool
	// cause is the last transient error behind a failed outcome.
	cause error
	// err is a permanent (non-transient) failure: the campaign aborts.
	err error
}

// runRecovered invokes the experiment body with panic containment: a
// panicking simulator becomes a transient experiment failure instead of
// process death.
func runRecovered(run Algorithm, ops target.Operations, c Campaign, plan faultmodel.Plan) (exp Experiment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = target.Transient(fmt.Errorf("core: panic during experiment: %v", p))
		}
	}()
	return run(ops, c, plan)
}

// runAttempt executes one experiment attempt. Targets with seeded behaviour
// (target.ExperimentSeeder, e.g. the Flaky chaos wrapper) are reseeded per
// (campaign seed, experiment, attempt) so outcomes do not depend on worker
// scheduling. With Campaign.ExperimentTimeout set, the attempt runs under a
// wall-clock watchdog; on expiry errHung is returned and the attempt's
// goroutine is abandoned together with the target it runs on.
func (r *Runner) runAttempt(ops target.Operations, run Algorithm, plan faultmodel.Plan, idx, attempt int) (Experiment, error) {
	c := r.campaign
	if s, ok := ops.(target.ExperimentSeeder); ok {
		s.SeedExperiment(c.Seed, idx, attempt)
	}
	if c.ExperimentTimeout <= 0 {
		return runRecovered(run, ops, c, plan)
	}
	type attemptResult struct {
		exp Experiment
		err error
	}
	ch := make(chan attemptResult, 1)
	go func() {
		exp, err := runRecovered(run, ops, c, plan)
		ch <- attemptResult{exp: exp, err: err}
	}()
	timer := time.NewTimer(c.ExperimentTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.exp, res.err
	case <-timer.C:
		return Experiment{}, errHung
	}
}

// runExperiment runs one experiment to a conclusion: bounded retries with
// exponential backoff and full target re-init after transient faults, a hang
// verdict when the watchdog fires, and a permanent error otherwise. Retries
// reuse the already-drawn plan, so the campaign's seeded plan stream is never
// consumed by fault tolerance. tid is the virtual thread the experiment's
// engine-level spans are recorded under (0 = the coordinator's reference
// run, w+1 = pool worker w).
func (r *Runner) runExperiment(ops target.Operations, run Algorithm, plan faultmodel.Plan, idx int, tid int32) runOutcome {
	c := r.campaign
	journal := r.Recorder.Journal()
	var name string
	if journal != nil {
		name = r.experimentName(idx)
	}
	var out runOutcome
	for attempt := 0; ; attempt++ {
		var tc obsv.TraceContext
		var began time.Time
		if journal != nil {
			// The context is stamped onto the target stack before the attempt
			// launches (same ordering contract as SeedExperiment), so chaos
			// faults injected mid-attempt attribute to this attempt.
			tc = r.traceCtx(name, idx, attempt, tid)
			target.ApplyTraceContext(ops, tc)
			began = time.Now()
		}
		exp, err := r.runAttempt(ops, run, plan, idx, attempt)
		if journal != nil {
			tc.EmitSpan(obsv.EvAttempt, attemptDetail(exp, err), began)
			// Whatever the stack does next (a retry's re-init) is outside
			// every attempt. A hung attempt's goroutine still owns its
			// abandoned target, so that target is left as it is.
			if !errors.Is(err, errHung) {
				target.ApplyTraceContext(ops, r.traceCtx("", 0, 0, tid))
			}
		}
		if err == nil {
			out.exp = exp
			return out
		}
		if errors.Is(err, errHung) {
			if journal != nil {
				tc.Emit(obsv.EvHang, fmt.Sprintf("watchdog=%v", c.ExperimentTimeout))
			}
			out.hung = true
			out.exp = Experiment{Plan: plan}
			return out
		}
		if !target.IsTransient(err) {
			out.err = err
			return out
		}
		if attempt >= c.RetryLimit {
			out.failed = true
			out.cause = err
			out.exp = Experiment{Plan: plan}
			return out
		}
		out.retries++
		if c.RetryBackoff > 0 {
			shift := attempt
			if shift > 6 {
				shift = 6 // cap the exponential curve, not the retry count
			}
			sp := r.Recorder.Begin(obsv.PhaseRetry, tid)
			bstart := time.Now()
			time.Sleep(c.RetryBackoff << shift)
			sp.End()
			if journal != nil {
				tc.EmitSpan(obsv.EvRetry, fmt.Sprintf("backoff=%v cause=%v", c.RetryBackoff<<shift, err), bstart)
			}
		} else if journal != nil {
			tc.Emit(obsv.EvRetry, fmt.Sprintf("cause=%v", err))
		}
		// Full power-up reset before the retry: a glitching target starts
		// the next attempt from a clean slate. A transient re-init failure
		// just burns the attempt; the next iteration re-inits again.
		if ierr := ops.InitTestCard(); ierr != nil && !target.IsTransient(ierr) {
			out.err = ierr
			return out
		}
	}
}

// experimentName names experiment idx the way the logging stage does, so
// trace events join against CampaignData rows by experiment name.
func (r *Runner) experimentName(idx int) string {
	if idx == refIndex {
		return r.campaign.Name + RefSuffix
	}
	return fmt.Sprintf("%s/e%04d", r.campaign.Name, idx)
}

// traceCtx builds the provenance context for one attempt of experiment idx.
func (r *Runner) traceCtx(name string, idx, attempt int, tid int32) obsv.TraceContext {
	return obsv.TraceContext{
		Rec:        r.Recorder,
		Campaign:   r.campaign.Name,
		Experiment: name,
		Index:      idx,
		Attempt:    attempt,
		TID:        tid,
	}
}

// attemptDetail summarises one attempt's verdict for its wide event.
func attemptDetail(exp Experiment, err error) string {
	switch {
	case err == nil:
		return "outcome=ok term=" + exp.Term.Reason.String()
	case errors.Is(err, errHung):
		return "outcome=hung"
	default:
		return "outcome=err cause=" + err.Error()
	}
}

// errNoFactory is why a runner without a Factory cannot replace a target
// that a hang retired.
var errNoFactory = errors.New("core: no Runner.Factory is set to replace the abandoned target")

// mintTarget mints a fresh target instance from the Factory and prepares it
// for campaign duty: a pool worker's target, or the replacement for one a
// hang retired.
func (r *Runner) mintTarget() (target.Operations, error) {
	if r.Factory == nil {
		return nil, errNoFactory
	}
	ops, err := r.Factory.New()
	if err != nil {
		return nil, err
	}
	ops.SetDetailMode(r.campaign.DetailMode)
	if cs, ok := target.AsCheckpointStore(ops); ok {
		cs.DropCheckpoints()
	}
	return ops, nil
}

// Run executes the campaign: it stores the campaign definition, performs the
// fault-free reference run, then runs and logs NExperiments fault-injection
// experiments (the outer loop of Fig. 2's faultInjectorSCIFI). Cancelling
// ctx stops the campaign between experiments.
func (r *Runner) Run(ctx context.Context) (Summary, error) {
	c := r.campaign
	start := time.Now()
	defer func() { r.Recorder.SetWallClock(time.Since(start)) }()
	r.Recorder.SetGauge("campaign.workers", int64(max(c.Workers, 1)))
	// Power up the test card first: campaign validation resolves location
	// filters against the live chain inventory.
	if err := r.ops.InitTestCard(); err != nil {
		return Summary{}, err
	}
	// Campaign setup — validation, location resolution, the campaign row —
	// is accounted as target-init: it is one-time preparation, and the span
	// starts after InitTestCard so a Measured target's own init phase is not
	// double-counted.
	ssp := r.Recorder.Begin(obsv.PhaseInit, 0)
	if err := c.Validate(r.ops); err != nil {
		ssp.End()
		return Summary{}, err
	}
	tech, err := techniqueFor(c.Technique)
	if err != nil {
		ssp.End()
		return Summary{}, err
	}
	locs, err := c.LocationFilter.Resolve(r.ops)
	if err != nil {
		ssp.End()
		return Summary{}, err
	}
	err = r.ensureCampaignRow()
	ssp.End()
	if err != nil {
		return Summary{}, err
	}

	// Live monitoring starts once the campaign row exists (the metrics rows
	// it may persist are FK-linked to CampaignData) and stops in finish,
	// which publishes the final event and flushes the buffered metrics rows
	// on this goroutine. A monitoring flush failure only surfaces when the
	// campaign itself succeeded — it must not mask the campaign's own error.
	mon, err := r.startMonitor()
	if err != nil {
		return Summary{}, err
	}
	r.mon = mon
	defer func() { r.mon = nil }()
	r.logger().Info("campaign starting",
		"campaign", c.Name, "experiments", c.NExperiments,
		"workers", max(c.Workers, 1), "technique", c.Technique)

	sum, err := r.execute(ctx, tech, locs)
	if ferr := mon.finish(sum); ferr != nil && err == nil {
		err = ferr
	}
	return sum, err
}

// execute runs the validated campaign: it draws every plan, runs the
// reference, then runs the experiments on the worker pool (runPool). Split
// from Run so monitoring setup/teardown brackets the whole execution on the
// Run goroutine.
func (r *Runner) execute(ctx context.Context, tech technique, locs []faultmodel.Location) (Summary, error) {
	c := r.campaign
	if c.Workers > 1 && r.Factory == nil {
		return Summary{}, fmt.Errorf("core: campaign %s: parallel execution (Workers=%d) needs a Runner.Factory",
			c.Name, c.Workers)
	}

	// Propagate context cancellation into the pause/stop machinery.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			r.Stop()
		case <-watchDone:
		}
	}()

	sum := Summary{
		Campaign:     c.Name,
		Terminations: map[string]int{},
		Detections:   map[string]int{},
	}

	r.ops.SetDetailMode(c.DetailMode)
	// A hang poisons the target it ran on; if that was r.ops itself, even
	// the detail-mode reset must not touch it again.
	opsPoisoned := false
	defer func() {
		if !opsPoisoned {
			r.ops.SetDetailMode(false)
		}
	}()

	// A stale snapshot from an earlier campaign must never leak in.
	if cs, ok := target.AsCheckpointStore(r.ops); ok {
		cs.DropCheckpoints()
	}

	// One prefix-scan of the campaign's logged experiments answers every
	// resume question below: a store failure is propagated rather than
	// treated as "nothing logged", which would re-run completed work.
	rsp := r.Recorder.Begin(obsv.PhaseInit, 0)
	logged, err := r.store.ExperimentNames(c.Name)
	rsp.End()
	if err != nil {
		return Summary{}, err
	}
	jobs, err := r.drawPlans(locs, logged, &sum)
	if err != nil {
		return sum, err
	}

	// Checkpoint forking changes the reference run (it doubles as the
	// checkpoint harvest), the job order and the experiment body; the
	// engine is the same.
	refRun := tech.run
	body := func(target.Operations) (Algorithm, error) { return tech.run, nil }
	var fork *forkPlan
	if c.Fork {
		fork = r.newForkPlan(tech, jobs)
		refRun = fork.golden
	}

	// A stopped campaign that is re-run resumes instead of redoing completed
	// work (the "restart" control of Fig. 7): the logged reference is
	// reused, except that a forking campaign reruns it for its checkpoints.
	ops := r.ops
	refLogged := logged[c.Name+RefSuffix]
	if !refLogged || (fork != nil && len(jobs) > 0) {
		if ops, err = r.reference(refRun, refLogged, &sum, &opsPoisoned); err != nil {
			return sum, err
		}
	}
	if len(jobs) == 0 {
		return sum, nil
	}
	if fork != nil {
		body = fork.source(ops)
	}
	return r.runPool(jobs, ops, body, sum, &opsPoisoned)
}

// drawPlans draws every injection plan on the coordinating goroutine, from
// the single seeded PRNG in experiment order, so every experiment is
// bit-identical whatever the width or the execution order. It returns the
// experiments not logged yet and counts the logged ones as skipped.
func (r *Runner) drawPlans(locs []faultmodel.Location, logged map[string]bool, sum *Summary) ([]poolJob, error) {
	c := r.campaign
	planFn := c.Model.Plan
	if r.PlanFunc != nil {
		planFn = r.PlanFunc
	}
	rng := rand.New(rand.NewSource(c.Seed))
	journal := r.Recorder.Journal()
	defer r.Recorder.Begin(obsv.PhasePlan, 0).End()
	jobs := make([]poolJob, 0, c.NExperiments)
	for i := 0; i < c.NExperiments; i++ {
		// The plan is drawn even for experiments skipped on resume, keeping
		// the PRNG stream aligned so a resumed campaign is bit-identical to
		// an uninterrupted one.
		plan, err := planFn(rng, locs, c.InjectMinTime, c.InjectMaxTime, c.Workload.MaxCycles)
		if err != nil {
			return nil, fmt.Errorf("core: experiment %d: %w", i, err)
		}
		name := r.experimentName(i)
		if logged[name] {
			sum.Skipped++
			r.Recorder.Count("experiments.skipped", 1)
			continue
		}
		if journal != nil {
			r.traceCtx(name, i, 0, 0).Emit(obsv.EvPlan, "plan="+plan.String())
		}
		jobs = append(jobs, poolJob{idx: i, name: name, plan: plan})
	}
	return jobs, nil
}

// reference performs the fault-free reference run with run and an empty
// plan (Fig. 2, makeReferenceRun), logs it under <campaign>/ref unless
// logged is set, and returns the target the campaign continues on. The
// reference has the same retry protection as an experiment, and a hang gets
// the pool's quarantine policy: with a Factory the wedged target is
// abandoned, a replacement is minted and the reference reruns, up to
// RetryLimit times. Otherwise a hang, an exhausted retry budget or a
// permanent error aborts: the campaign is meaningless without a reference.
func (r *Runner) reference(run Algorithm, logged bool, sum *Summary, opsPoisoned *bool) (target.Operations, error) {
	c := r.campaign
	ops := r.ops
	out := r.runExperiment(ops, run, faultmodel.Plan{}, refIndex, 0)
	for k := 0; out.hung && r.Factory != nil && k < c.RetryLimit; k++ {
		*opsPoisoned = *opsPoisoned || ops == r.ops
		sum.Hangs++
		sum.Retries += out.retries
		sum.Quarantined++
		r.Recorder.Count("experiments.quarantined", 1)
		r.logger().Warn("reference run hung; quarantining target and re-minting",
			"campaign", c.Name, "watchdog", c.ExperimentTimeout)
		nops, err := r.mintTarget()
		if err != nil {
			break
		}
		ops = nops
		// Seeded chaos wrappers replay per (seed, index, attempt): rerunning
		// under refIndex would wedge at exactly the same op forever, so each
		// rerun draws from its own index below refIndex — a seeding domain no
		// real experiment uses. The logged reference row is index-independent.
		out = r.runExperiment(ops, run, faultmodel.Plan{}, refIndex-1-k, 0)
	}
	sum.Retries += out.retries
	switch {
	case out.err != nil:
		return nil, fmt.Errorf("core: reference run: %w", out.err)
	case out.hung:
		*opsPoisoned = *opsPoisoned || ops == r.ops
		return nil, fmt.Errorf("core: reference run hung (watchdog %v); campaign cannot proceed without a reference", c.ExperimentTimeout)
	case out.failed:
		return nil, fmt.Errorf("core: reference run failed after %d attempts: %w", c.RetryLimit+1, out.cause)
	}
	if !logged {
		if err := r.logExperiment(c.Name+RefSuffix, "", out.exp); err != nil {
			return nil, err
		}
	}
	r.report(r.progress(sum, sum.Skipped, c.NExperiments, "reference "+out.exp.Term.Reason.String()))
	return ops, nil
}

// accountOutcome folds one concluded experiment into the running summary and
// returns its progress label.
func (r *Runner) accountOutcome(sum *Summary, out runOutcome) string {
	sum.Completed++
	r.Recorder.Count("experiments.completed", 1)
	r.Recorder.Count("experiments.retries", int64(out.retries))
	switch {
	case out.hung:
		sum.Hangs++
		sum.Terminations[TermHang]++
		r.Recorder.Count("experiments.hangs", 1)
		return TermHang
	case out.failed:
		sum.Terminations[TermFailed]++
		r.Recorder.Count("experiments.failed", 1)
		return TermFailed
	}
	sum.Terminations[out.exp.Term.Reason.String()]++
	if out.exp.Term.Reason == target.TerminDetected {
		sum.Detections[out.exp.Term.Mechanism]++
	}
	return outcomeOf(out.exp)
}

// progress snapshots the summary's counters into a progress event.
func (r *Runner) progress(sum *Summary, done, total int, label string) Progress {
	return Progress{
		Campaign:    r.campaign.Name,
		Done:        done,
		Total:       total,
		LastOutcome: label,
		Skipped:     sum.Skipped,
		Detected:    detectedOf(*sum),
		Retries:     sum.Retries,
		Hangs:       sum.Hangs,
		Quarantined: sum.Quarantined,
	}
}

// outcomeOf renders an experiment's termination for progress reporting.
func outcomeOf(exp Experiment) string {
	outcome := exp.Term.Reason.String()
	if exp.Term.Mechanism != "" {
		outcome += " (" + exp.Term.Mechanism + ")"
	}
	return outcome
}

// poolJob is one pre-planned experiment awaiting a worker.
type poolJob struct {
	idx       int
	name      string
	plan      faultmodel.Plan
	firstTime uint64 // the checkpoint key under forking (forkFirstTime)
}

// poolResult is one concluded experiment on its way to the coordinator.
type poolResult struct {
	idx  int
	name string
	out  runOutcome
	// quarantined marks that the worker retired its target after this job.
	quarantined bool
	// lost is why no replacement target could be minted: the worker retired
	// itself, degrading the pool.
	lost error
}

// maxLogBatch caps how many experiment rows the logging stage writes in one
// batched insert; a power of two, so a full batch is one write. It is also
// the capacity of the stage's queue, so at most 2×maxLogBatch rows are ever
// accepted and not yet acknowledged by the store.
const maxLogBatch = 32

// flushRetryLimit and flushRetryBackoff bound the retries of a transiently
// failing store before the campaign aborts.
const (
	flushRetryLimit   = 3
	flushRetryBackoff = 5 * time.Millisecond
)

// storeErrTransient reports whether a store failure is worth retrying: a
// transient target-side fault (target.IsTransient — the taxonomy the retry
// machinery already speaks) or a transient injected storage fault
// (vfs.IsTransient — vfs.Faulty under -storage-chaos). Both ride the same
// bounded retry budget, so a campaign on a flaky disk completes exactly like
// one on a healthy disk.
func storeErrTransient(err error) bool {
	return target.IsTransient(err) || vfs.IsTransient(err)
}

// retryStore runs one store write, absorbing transient store faults with
// bounded exponential backoff; a campaign must not abort on one transient
// disk fault.
func retryStore(put func() error) error {
	for attempt := 0; ; attempt++ {
		err := put()
		if err == nil || attempt >= flushRetryLimit || !storeErrTransient(err) {
			return err
		}
		time.Sleep(flushRetryBackoff << attempt)
	}
}

// putExperiment logs one row outside a running pool (the reference run, a
// detail rerun).
func (r *Runner) putExperiment(row dbase.ExperimentRow) error {
	return retryStore(func() error { return r.store.PutExperiment(row) })
}

// logStage is the logging stage of a running campaign: one goroutine that
// makes every experiment-row write to the store while experiments run, so a
// row's commit (an fsync under a WAL store) overlaps the next experiment
// instead of delaying it. The coordinator queues rows with put; the stage
// takes whatever is queued, at most maxLogBatch rows, and writes them with
// PutExperiments. Rows reach the store in the order they were queued. put
// blocks while the queue is full, which bounds the rows accepted and not yet
// acknowledged to 2×maxLogBatch. After a permanent store failure (transient
// ones are retried) the stage discards every later row; the coordinator
// sees the failure at its next result and halts dispatch, the campaign
// aborts with the store's error, and a resume reruns those experiments.
type logStage struct {
	r      *Runner
	rows   chan dbase.ExperimentRow
	done   chan struct{}
	err    error       // written by the stage goroutine before failed is set
	failed atomic.Bool // read by the coordinator
}

// startLogStage starts the stage goroutine. Its flushes are recorded under
// their own virtual thread, obsv.LogStageTID, since they overlap the
// coordinator and the workers.
func (r *Runner) startLogStage() *logStage {
	s := &logStage{
		r:    r,
		rows: make(chan dbase.ExperimentRow, maxLogBatch),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

// run is the stage goroutine. Each call writes the largest power-of-two
// prefix of the rows taken (1, 2, 4, … 32) and keeps the rest for the next
// call. Every row count is a distinct INSERT text, and the SQL layer keeps
// the parsed texts in one process-wide cache: with any count from 1 to 32 a
// campaign leaves ~160 KB of parsed statements live there, which pulls the
// next campaign's garbage collections earlier; six shapes hold ~20 KB.
func (s *logStage) run() {
	defer close(s.done)
	batch := make([]dbase.ExperimentRow, 0, maxLogBatch)
	for {
		if len(batch) == 0 {
			row, ok := <-s.rows
			if !ok {
				return
			}
			batch = append(batch, row)
		}
		// The stage is the only receiver, so a queued row is there to take.
		for len(batch) < maxLogBatch && len(s.rows) > 0 {
			batch = append(batch, <-s.rows)
		}
		n := 1 << (bits.Len(uint(len(batch))) - 1)
		if !s.failed.Load() {
			sp := s.r.Recorder.Begin(obsv.PhaseFlush, obsv.LogStageTID)
			err := retryStore(func() error { return s.r.store.PutExperiments(batch[:n]) })
			sp.End()
			if err != nil {
				s.err = err
				s.failed.Store(true)
			}
		}
		batch = append(batch[:0], batch[n:]...)
	}
}

// put queues one row, blocking while the queue is full.
func (s *logStage) put(row dbase.ExperimentRow) { s.rows <- row }

// failure returns the store error that stopped the stage, or nil.
func (s *logStage) failure() error {
	if s.failed.Load() {
		return s.err
	}
	return nil
}

// close waits until every queued row has been acknowledged by the store (or
// discarded after a failure) and returns the store's error.
func (s *logStage) close() error {
	close(s.rows)
	<-s.done
	return s.err
}

// runPool is the campaign engine: it dispatches the jobs, in order, to W
// workers, each running the Algorithm that body returns for its target; a
// sequential campaign (Workers <= 1) is a pool of one worker. The
// coordinator folds each result into the summary, reports progress,
// evaluates StopCondition and queues the row on the logging stage.
//
// Dispatch: at most W experiments are dispatched and not yet accounted. The
// coordinator returns one credit per result once it has accounted it, and
// the dispatcher honours Pause and Stop before every dispatch. With one
// worker this is the sequential contract: Pause, Stop and StopCondition act
// between experiments with nothing in flight. Progress is reported in
// completion order.
//
// Targets: a single worker runs on first, the target the reference run
// ended on, so no Factory is needed; each of W > 1 workers owns a
// Factory-minted instance. A worker whose attempt hung quarantines its
// target, which the abandoned attempt goroutine may still be running on, and
// continues on a freshly minted replacement with a freshly bound body. If
// none can be minted or bound (no Factory, or the Factory fails), the worker
// retires and the pool degrades; once no worker is left, the campaign aborts
// with the completed rows logged and resumable.
func (r *Runner) runPool(jobs []poolJob, first target.Operations, body func(target.Operations) (Algorithm, error), sum Summary, opsPoisoned *bool) (Summary, error) {
	c := r.campaign
	workers := min(max(c.Workers, 1), len(jobs))
	// Every worker's target is minted and bound before any worker starts, so
	// a factory or bind failure aborts before any experiment runs.
	targets := make([]target.Operations, workers)
	runs := make([]Algorithm, workers)
	for i := range targets {
		ops := first
		var err error
		if workers > 1 {
			ops, err = r.mintTarget()
		}
		if err == nil {
			runs[i], err = body(ops)
		}
		if err != nil {
			return sum, fmt.Errorf("core: campaign %s: worker %d: %w", c.Name, i, err)
		}
		targets[i] = ops
	}
	journal := r.Recorder.Journal()

	jobCh := make(chan poolJob)
	resCh := make(chan poolResult, workers)
	credits := make(chan struct{}, workers)
	for range workers {
		credits <- struct{}{}
	}
	haltDispatch := make(chan struct{})
	var haltOnce sync.Once
	halt := func() { haltOnce.Do(func() { close(haltDispatch) }) }
	stage := r.startLogStage()

	var liveWorkers atomic.Int32
	liveWorkers.Store(int32(workers))
	var retiredOps atomic.Bool // a hang abandoned r.ops to its attempt goroutine
	var wg sync.WaitGroup
	for w, ops := range targets {
		wg.Add(1)
		// Worker w records under virtual thread w+1; tid 0 belongs to the
		// coordinator (planning, the reference run).
		go func(ops target.Operations, run Algorithm, tid int32) {
			defer wg.Done()
			// When the last worker retires, dispatch must halt too or the
			// dispatcher would block forever on an unclaimed jobCh send.
			defer func() {
				if liveWorkers.Add(-1) == 0 {
					halt()
				}
			}()
			tagWorker(ops, tid)
			for j := range jobCh {
				res := poolResult{idx: j.idx, name: j.name}
				res.out = r.runExperiment(ops, run, j.plan, j.idx, tid)
				if res.out.hung {
					res.quarantined = true
					if ops == r.ops {
						retiredOps.Store(true)
					}
					if journal != nil {
						r.traceCtx(j.name, j.idx, 0, tid).Emit(obsv.EvQuarantine, "hung target retired")
					}
					nops, err := r.mintTarget()
					if err == nil {
						run, err = body(nops)
					}
					if err != nil {
						res.lost = err
						resCh <- res
						return
					}
					ops = nops
					tagWorker(ops, tid)
				}
				resCh <- res
			}
		}(ops, runs[w], int32(w+1))
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case <-credits:
			case <-haltDispatch:
				return
			}
			// The credit came back after the coordinator accounted a result,
			// so a Stop, Pause or halt issued while accounting it is seen here.
			if r.checkpoint() != nil {
				return
			}
			select {
			case <-haltDispatch:
				return
			default:
			}
			select {
			case jobCh <- j:
			case <-haltDispatch:
				return
			}
		}
	}()

	t := r.newTally(&sum, stage, halt, c.NExperiments, workers)
	for res := range resCh {
		if t.admit(res) {
			stage.put(r.outcomeRow(res.name, "", res.out))
			t.account(res)
		}
		credits <- struct{}{}
	}
	err := t.finish(len(jobs))
	if retiredOps.Load() {
		*opsPoisoned = true
	}
	return sum, err
}

// tally is a pool coordinator's account of the results coming back from its
// workers: it folds them into the summary, reports progress, evaluates
// StopCondition, and turns how the pool ended into Run's error.
type tally struct {
	r     *Runner
	sum   *Summary
	stage *logStage
	halt  func()

	total, workers int
	done           int // progress count: skipped plus accounted experiments
	received       int
	lost           int   // workers retired without a replacement target
	lostErr        error // why the last of them could not get one
	firstErr       error
	condStop       bool
}

func (r *Runner) newTally(sum *Summary, stage *logStage, halt func(), total, workers int) *tally {
	return &tally{r: r, sum: sum, stage: stage, halt: halt, total: total, workers: workers, done: sum.Skipped}
}

// admit takes in one result and reports whether the experiment is to be
// logged and accounted. The first failure (an experiment's permanent error,
// a store failure) halts dispatch; the pool dispatches only on a credit
// returned after admit, so nothing is dispatched once the coordinator has
// seen the failure. Later results are dropped: a resume reruns them.
func (t *tally) admit(res poolResult) bool {
	c := t.r.campaign
	t.received++
	t.sum.Retries += res.out.retries
	if res.quarantined {
		t.sum.Quarantined++
		t.r.Recorder.Count("experiments.quarantined", 1)
		t.r.logger().Warn("experiment hung; target quarantined",
			"campaign", c.Name, "experiment", res.name, "watchdog", c.ExperimentTimeout)
	}
	if res.lost != nil {
		t.lost++
		t.lostErr = res.lost
		t.r.logger().Warn("worker retired; pool degraded",
			"campaign", c.Name, "workersLost", t.lost, "workers", t.workers, "cause", res.lost)
	}
	if t.firstErr == nil {
		t.firstErr = t.stage.failure()
		if res.out.err != nil && t.firstErr == nil {
			t.firstErr = fmt.Errorf("core: experiment %d: %w", res.idx, res.out.err)
		}
		if t.firstErr != nil {
			t.halt()
		}
	}
	return t.firstErr == nil
}

// account folds an admitted experiment into the summary and reports it. The
// caller queues the row first, so no progress event runs ahead of the rows
// the logging stage has accepted.
func (t *tally) account(res poolResult) {
	t.done++
	label := t.r.accountOutcome(t.sum, res.out)
	t.r.report(t.r.progress(t.sum, t.done, t.total, label))
	if !t.condStop && t.r.StopCondition != nil && t.r.StopCondition(*t.sum) {
		t.condStop = true
		t.halt()
	}
}

// finish waits for the logging stage to drain and returns the campaign's
// outcome once the result stream has closed; jobs is how many experiments
// were to run.
func (t *tally) finish(jobs int) error {
	if err := t.stage.close(); t.firstErr == nil {
		t.firstErr = err
	}
	if t.firstErr != nil || t.condStop {
		return t.firstErr
	}
	if t.received < jobs {
		// Final tick: after an interrupted campaign the progress consumer
		// must be left with the true completed count, not the last
		// completion-order snapshot.
		t.r.report(t.r.progress(t.sum, t.done, t.total, "stopped"))
		if t.lost == t.workers {
			return fmt.Errorf("core: campaign %s: all %d workers lost their targets (%d quarantined); %d experiments not run: %w",
				t.r.campaign.Name, t.workers, t.sum.Quarantined, jobs-t.received, t.lostErr)
		}
		// Dispatch was cut short by Stop (or context cancellation, which
		// maps to Stop).
		return ErrStopped
	}
	return nil
}

// tagWorker assigns the worker's virtual thread id to instrumented targets
// (target.Measured); other targets ignore it.
func tagWorker(ops target.Operations, tid int32) {
	if t, ok := ops.(interface{ SetWorkerID(int32) }); ok {
		t.SetWorkerID(tid)
	}
}

// ensureCampaignRow stores the CampaignData row, tolerating an identical
// pre-existing definition (the CLI setup phase may have written it already).
func (r *Runner) ensureCampaignRow() error {
	row := r.campaign.Row(r.ops.Name())
	existing, err := r.store.GetCampaign(r.campaign.Name)
	if err == nil {
		if existing != row {
			return fmt.Errorf("core: campaign %q already exists with a different definition", r.campaign.Name)
		}
		return nil
	}
	if !errors.Is(err, dbase.ErrNotFound) {
		return err
	}
	return r.store.PutCampaign(row)
}

func (r *Runner) report(p Progress) {
	if r.OnProgress != nil {
		r.OnProgress(p)
	}
	r.mon.observe(p)
}

func (r *Runner) experimentRow(name, parent string, exp Experiment) dbase.ExperimentRow {
	state := exp.State
	if state == nil {
		state = emptyState
	}
	return dbase.ExperimentRow{
		ExperimentName:    name,
		ParentExperiment:  parent,
		CampaignName:      r.campaign.Name,
		ExperimentData:    exp.Data(),
		TerminationReason: exp.Term.Reason.String(),
		Mechanism:         exp.Term.Mechanism,
		Cycles:            exp.Term.Cycles,
		Iterations:        exp.Term.Iterations,
		StateVector:       state,
	}
}

// outcomeRow renders a concluded experiment as its LoggedSystemState row,
// overriding the termination reason for engine-synthesised outcomes.
func (r *Runner) outcomeRow(name, parent string, out runOutcome) dbase.ExperimentRow {
	row := r.experimentRow(name, parent, out.exp)
	switch {
	case out.hung:
		row.TerminationReason = TermHang
	case out.failed:
		row.TerminationReason = TermFailed
	}
	return row
}

func (r *Runner) logExperiment(name, parent string, exp Experiment) error {
	return r.putExperiment(r.experimentRow(name, parent, exp))
}

// RerunDetail repeats a logged experiment in detail mode, logging the trace
// under "<experiment>/detail" with parentExperiment set — the exact E1/E2
// scenario the paper uses to motivate the parentExperiment column (§2.3).
// It returns the new experiment's name.
func (r *Runner) RerunDetail(experimentName string) (string, error) {
	row, err := r.store.GetExperiment(experimentName)
	if err != nil {
		return "", err
	}
	if row.CampaignName != r.campaign.Name {
		return "", fmt.Errorf("core: experiment %s belongs to campaign %s, runner holds %s",
			experimentName, row.CampaignName, r.campaign.Name)
	}
	plan, err := parseExperimentPlan(row.ExperimentData)
	if err != nil {
		return "", err
	}
	tech, err := techniqueFor(r.campaign.Technique)
	if err != nil {
		return "", err
	}
	r.ops.SetDetailMode(true)
	defer r.ops.SetDetailMode(false)
	exp, err := tech.run(r.ops, r.campaign, plan)
	if err != nil {
		return "", fmt.Errorf("core: detail rerun of %s: %w", experimentName, err)
	}
	name := experimentName + DetailSuffix
	if err := r.logExperiment(name, experimentName, exp); err != nil {
		return "", err
	}
	return name, nil
}

// parseExperimentPlan recovers the injection plan from an experimentData
// column ("plan=[...] injected=k/n").
func parseExperimentPlan(data string) (faultmodel.Plan, error) {
	const prefix = "plan=["
	start := strings.Index(data, prefix)
	if start < 0 {
		return faultmodel.Plan{}, fmt.Errorf("core: experimentData %q has no plan", data)
	}
	start += len(prefix)
	length := strings.IndexByte(data[start:], ']')
	if length < 0 {
		return faultmodel.Plan{}, fmt.Errorf("core: experimentData %q has unterminated plan", data)
	}
	return faultmodel.ParsePlan(data[start : start+length])
}

// PlanOfExperiment recovers the injection plan from a LoggedSystemState
// experimentData value; analysis code uses it to attribute outcomes to
// fault locations.
func PlanOfExperiment(experimentData string) (faultmodel.Plan, error) {
	return parseExperimentPlan(experimentData)
}
