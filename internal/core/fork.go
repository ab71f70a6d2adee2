package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
)

// This file is the golden-run checkpoint-forking engine (Campaign.Fork): the
// reference run snapshots the complete system state — CPU, caches, memory,
// debug unit, TAP stage and environment simulator — at a grid of cycles plus
// every distinct first-injection time of the campaign's pre-drawn plans. Each
// experiment then restores the nearest checkpoint at or before its first
// injection and executes only the suffix, instead of re-running the fault-free
// prefix from reset.
//
// The optimisation is behaviour-preserving for a deterministic target:
// restoring the snapshot keyed by time t yields exactly the state a plain run
// holds when its first breakpoint at t fires, because the snapshot was taken
// at the first reference cycle >= t and every earlier cycle is < t. Plans are
// still drawn on the coordinator in experiment order from the single seeded
// PRNG, so the logged rows and state vectors are bit-identical to a
// non-forking run of the same seed — forking reorders execution, never the
// plan stream, and rows are released to the store in plan order.

// defaultCheckpointMem is the harvest/pool memory budget when
// Campaign.CheckpointMem is zero.
const defaultCheckpointMem = 64 << 20

// forkJob is one pre-planned experiment with the first-injection time its
// checkpoint restore is keyed by.
type forkJob struct {
	idx       int
	name      string
	plan      faultmodel.Plan
	firstTime uint64
}

// forkFirstTime is the cycle an experiment's checkpoint lookup is keyed by:
// the earliest planned injection time, or 0 for pre-runtime injection (the
// fault lands before the first instruction).
func forkFirstTime(technique string, plan faultmodel.Plan) uint64 {
	if technique == TechSWIFIPre {
		return 0
	}
	times := plan.Times()
	if len(times) == 0 {
		return 0
	}
	return times[0]
}

// forkSource holds the checkpoints exported from the golden run, shared
// read-only by every worker. cycles is sorted ascending and always starts
// with 0 (the armed, not-yet-executed workload).
type forkSource struct {
	cycles []uint64
	snaps  map[uint64]any
}

// nearest returns the largest harvested cycle at or before t.
func (s *forkSource) nearest(t uint64) uint64 {
	i := sort.Search(len(s.cycles), func(i int) bool { return s.cycles[i] > t })
	return s.cycles[i-1]
}

// forkWorker owns one target instance and its imported checkpoint pool. The
// pool is a CheckpointMem-bounded LRU over the source's snapshots. A
// quarantined instance takes its worker (and pool) down with it — the
// replacement target gets a freshly bound worker with an empty pool, so a
// checkpoint cached on a poisoned target is never trusted again.
type forkWorker struct {
	r      *Runner
	tech   technique
	src    *forkSource
	budget int64

	ops target.Operations
	cs  target.CheckpointStore
	lru []uint64 // imported checkpoint ids, least recently used first
}

// bind attaches the worker to a target instance, clearing any checkpoint
// state it may carry and invalidating the worker's imported pool.
func (w *forkWorker) bind(ops target.Operations) error {
	cs, ok := target.AsCheckpointStore(ops)
	if !ok {
		return fmt.Errorf("core: fork worker target %s has no checkpoint store", ops.Name())
	}
	ops.SetDetailMode(false)
	if cp, ok := ops.(target.Checkpointer); ok {
		cp.ClearCheckpoint()
	}
	cs.DropCheckpoints()
	w.ops, w.cs, w.lru = ops, cs, nil
	w.r.Recorder.SetGauge("fork.pool.size", 0)
	return nil
}

// ensure makes checkpoint id resident in the worker's pool, importing it from
// the source on a miss and evicting least recently used imports past the
// memory budget. A missing source snapshot is not an error — the restore will
// miss and the experiment falls back to the plain algorithm.
func (w *forkWorker) ensure(id uint64) error {
	for i, v := range w.lru {
		if v == id {
			w.lru = append(append(w.lru[:i], w.lru[i+1:]...), id)
			w.r.Recorder.Count("fork.pool.hits", 1)
			return nil
		}
	}
	w.r.Recorder.Count("fork.pool.misses", 1)
	snap, ok := w.src.snaps[id]
	if !ok {
		return nil
	}
	if err := w.cs.ImportCheckpoint(id, snap); err != nil {
		return err
	}
	w.lru = append(w.lru, id)
	for w.cs.CheckpointBytes() > w.budget && len(w.lru) > 1 {
		w.cs.DropCheckpointAt(w.lru[0])
		w.lru = w.lru[1:]
	}
	w.r.Recorder.SetGauge("fork.pool.size", int64(len(w.lru)))
	return nil
}

// run is the forked experiment body (an Algorithm): arm the workload, restore
// the nearest checkpoint at or before the plan's first injection time, then
// execute only the suffix. Arming first matters — prepare installs the
// workload image, environment simulator and hooks the restored snapshot runs
// under, and it makes the body retry-safe (the runner's retry loop re-inits
// the target between attempts). The few memory writes prepare costs are
// overwritten by the restore; the prefix execution is what the checkpoint
// amortises.
func (w *forkWorker) run(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	id := w.src.nearest(forkFirstTime(c.Technique, plan))
	if err := prepare(ops, c); err != nil {
		return Experiment{}, err
	}
	if err := w.ensure(id); err != nil {
		return Experiment{}, err
	}
	ok, err := w.cs.RestoreCheckpointAt(id)
	if err != nil {
		return Experiment{}, err
	}
	if !ok {
		// No usable checkpoint: fall back to the plain, non-forked algorithm.
		// Slower, never wrong.
		w.r.Recorder.Count("fork.pool.fallbacks", 1)
		return w.tech.run(ops, c, plan)
	}
	if tc := target.TraceContextOf(ops); tc.Enabled() {
		tc.Emit(obsv.EvRestore, fmt.Sprintf("checkpoint=%d", id))
	}
	return forkSuffix(ops, c, plan)
}

// forkSuffix executes an experiment from a restored checkpoint to
// termination. The breakpoint walk is the same loop the plain algorithms run;
// starting it at the restored cycle is sound because every reference cycle
// before the restore point is below the checkpoint's key, hence below every
// planned injection time routed to it.
func forkSuffix(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	if c.Technique == TechSWIFIPre {
		// Pre-runtime SWIFI: the cycle-0 checkpoint holds the armed,
		// not-yet-executed workload, and arming preserves memory — injecting
		// into the restored image reaches the same state plain SWIFI-pre does
		// by injecting before RunWorkload.
		if err := injectMemory(ops, plan.Injections); err != nil {
			return Experiment{}, err
		}
		return finish(ops, c, plan, len(plan.Injections))
	}
	inject := injectScan
	if c.Technique == TechSWIFIRuntime {
		inject = injectMemory
	}
	injected := 0
	for _, t := range plan.Times() {
		if err := ops.SetBreakpoint(t); err != nil {
			return Experiment{}, err
		}
		hit, err := ops.WaitForBreakpoint(c.Workload.MaxCycles)
		if err != nil {
			return Experiment{}, err
		}
		if !hit {
			break
		}
		injs := plan.At(t)
		if err := inject(ops, injs); err != nil {
			return Experiment{}, err
		}
		injected += len(injs)
	}
	return finish(ops, c, plan, injected)
}

// goldenRun builds the reference-run body: the plain fault-free execution,
// interleaved with checkpoint saves at the candidate cycles. Saving via
// breakpoints is outcome-invariant — the debug unit halts between
// instructions without touching architectural state — so the logged reference
// row is byte-identical to a non-forking reference. When the harvest
// overflows the memory budget, the checkpoint closest to its predecessor is
// dropped (losing the least restore coverage); the cycle-0 snapshot, which
// carries the full golden image the deltas alias, is always kept.
func (r *Runner) goldenRun(cs target.CheckpointStore, candidates []uint64, budget int64, saved *[]uint64) Algorithm {
	return func(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
		// Retry hygiene: a partial harvest from a failed attempt is dropped.
		cs.DropCheckpoints()
		*saved = (*saved)[:0]
		if err := prepare(ops, c); err != nil {
			return Experiment{}, err
		}
		save := func(t uint64) error {
			if err := cs.SaveCheckpointAt(t); err != nil {
				return err
			}
			*saved = append(*saved, t)
			r.Recorder.Count("fork.checkpoints.saved", 1)
			for cs.CheckpointBytes() > budget && len(*saved) > 1 {
				sl := *saved
				drop := 1
				for k := 2; k < len(sl); k++ {
					if sl[k]-sl[k-1] < sl[drop]-sl[drop-1] {
						drop = k
					}
				}
				cs.DropCheckpointAt(sl[drop])
				*saved = append(sl[:drop], sl[drop+1:]...)
				r.Recorder.Count("fork.checkpoints.dropped", 1)
			}
			return nil
		}
		if err := save(0); err != nil {
			return Experiment{}, err
		}
		for _, t := range candidates {
			if t == 0 {
				continue
			}
			if err := ops.SetBreakpoint(t); err != nil {
				return Experiment{}, err
			}
			hit, err := ops.WaitForBreakpoint(c.Workload.MaxCycles)
			if err != nil {
				return Experiment{}, err
			}
			if !hit {
				// The workload ends before t: neither this checkpoint nor any
				// later one is reachable, and experiments keyed past the end
				// restore an earlier snapshot and terminate the same way the
				// plain algorithm does.
				break
			}
			if err := save(t); err != nil {
				if !target.IsTransient(err) {
					return Experiment{}, err
				}
				// A transiently failed save costs coverage, not correctness:
				// the candidate is skipped and experiments keyed here restore
				// the nearest earlier checkpoint instead. Without this, a
				// chaos-wrapped target fails the whole reference run with
				// near certainty — one long run touches every candidate.
				// Cycle 0 stays fatal above: it anchors the golden image
				// every later delta aliases.
				r.Recorder.Count("fork.checkpoints.skipped", 1)
			}
		}
		return finish(ops, c, plan, 0)
	}
}

// runForked is the checkpoint-forking campaign engine. Plans are pre-drawn on
// the coordinator in experiment order (the PRNG stream is identical to a
// sequential run), the golden reference run harvests the checkpoint set, and
// jobs fan out round-robin to workers that each execute their slice in
// first-injection-time order over a per-worker checkpoint pool. Results are
// released to the store in plan order through a reorder buffer. Resume,
// Pause/Stop, StopCondition and the quarantine/re-mint fault tolerance of the
// parallel engine are preserved; a quarantined worker's imported pool is
// invalidated with the instance.
func (r *Runner) runForked(tech technique, locs []faultmodel.Location, logged map[string]bool, sum Summary, opsPoisoned *bool) (Summary, error) {
	c := r.campaign
	planFn := c.Model.Plan
	if r.PlanFunc != nil {
		planFn = r.PlanFunc
	}
	rng := rand.New(rand.NewSource(c.Seed))
	psp := r.Recorder.Begin(obsv.PhasePlan, 0)
	jobs := make([]forkJob, 0, c.NExperiments)
	harvest := map[uint64]bool{0: true}
	for i := 0; i < c.NExperiments; i++ {
		// Drawn even for experiments skipped on resume: the stream stays
		// aligned.
		plan, err := planFn(rng, locs, c.InjectMinTime, c.InjectMaxTime, c.Workload.MaxCycles)
		if err != nil {
			psp.End()
			return sum, fmt.Errorf("core: experiment %d: %w", i, err)
		}
		name := r.experimentName(i)
		if logged[name] {
			sum.Skipped++
			r.Recorder.Count("experiments.skipped", 1)
			continue
		}
		ft := forkFirstTime(c.Technique, plan)
		harvest[ft] = true
		if r.Recorder.Journal() != nil {
			r.traceCtx(name, i, 0, 0).Emit(obsv.EvPlan, "plan="+plan.String())
		}
		jobs = append(jobs, forkJob{idx: i, name: name, plan: plan, firstTime: ft})
	}
	psp.End()

	refLogged := logged[c.Name+RefSuffix]
	if len(jobs) == 0 && refLogged {
		return sum, nil
	}

	// Candidate checkpoint cycles: the configured grid plus every distinct
	// first-injection time, so most experiments restore at exactly their
	// injection point and re-execute zero prefix cycles.
	every := c.CheckpointEvery
	if every == 0 {
		every = max(1, c.InjectMaxTime/16)
	}
	for t := every; t <= c.InjectMaxTime; t += every {
		harvest[t] = true
	}
	candidates := make([]uint64, 0, len(harvest))
	for t := range harvest {
		candidates = append(candidates, t)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	budget := c.CheckpointMem
	if budget == 0 {
		budget = defaultCheckpointMem
	}

	// Golden reference run doubling as the checkpoint harvest, under the
	// standard retry/watchdog machinery. It runs even when the reference row
	// is already logged — a resumed campaign needs the checkpoints back.
	cs, _ := target.AsCheckpointStore(r.ops) // presence validated by Campaign.Validate
	gops := r.ops
	var saved []uint64
	gsp := r.Recorder.BeginGroup("reference", 0)
	out := r.runExperiment(gops, r.goldenRun(cs, candidates, budget, &saved), faultmodel.Plan{}, refIndex, 0)
	// A hang abandons the target under the golden run. The plain engine must
	// abort here — its reference ran on the only target it has — but with a
	// factory the forked engine applies the workers' quarantine policy to
	// the coordinator too: re-mint and rerun, spending the retry budget. The
	// golden run touches every harvest candidate, so under hang chaos it
	// wedges far more often than a plain reference; without this it would
	// abort campaigns the plain engine survives. The abandoned goroutine
	// still owns the old target and its checkpoint store, so both are
	// replaced wholesale, never reused.
	for hangs := 0; out.hung && r.Factory != nil && hangs < c.RetryLimit; hangs++ {
		if gops == r.ops {
			*opsPoisoned = true
		}
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
		ncs, ok := target.AsCheckpointStore(nops)
		if !ok {
			break
		}
		gops, cs = nops, ncs
		// Seeded chaos wrappers replay per (seed, index, attempt): rerunning
		// under refIndex would wedge at exactly the same op forever, so each
		// rerun draws from its own index below refIndex — a seeding domain no
		// real experiment uses. The logged reference row is index-independent.
		out = r.runExperiment(gops, r.goldenRun(cs, candidates, budget, &saved), faultmodel.Plan{}, refIndex-1-hangs, 0)
	}
	gsp.End()
	sum.Retries += out.retries
	switch {
	case out.err != nil:
		return sum, fmt.Errorf("core: reference run: %w", out.err)
	case out.hung:
		if gops == r.ops {
			*opsPoisoned = true
		}
		return sum, fmt.Errorf("core: reference run hung (watchdog %v); campaign cannot proceed without a reference", c.ExperimentTimeout)
	case out.failed:
		return sum, fmt.Errorf("core: reference run failed after %d attempts: %w", c.RetryLimit+1, out.cause)
	}
	if !refLogged {
		if err := r.logExperiment(c.Name+RefSuffix, "", out.exp); err != nil {
			return sum, err
		}
	}
	r.report(r.progress(&sum, sum.Skipped, c.NExperiments, "reference "+out.exp.Term.Reason.String()))
	if len(jobs) == 0 {
		return sum, nil
	}

	// Export the harvest into the shared source (exports are immutable and
	// alias the golden image, so this is O(checkpoints), not O(memory)), then
	// clear the coordinator target's store — workers re-import on demand.
	src := &forkSource{snaps: make(map[uint64]any, len(saved))}
	for _, t := range saved {
		if snap, ok := cs.ExportCheckpoint(t); ok {
			src.cycles = append(src.cycles, t)
			src.snaps[t] = snap
		}
	}
	cs.DropCheckpoints()
	r.Recorder.SetGauge("fork.checkpoints.harvested", int64(len(src.cycles)))

	workers := max(c.Workers, 1)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	targets := make([]target.Operations, workers)
	if c.Workers > 1 {
		if r.Factory == nil {
			return sum, fmt.Errorf("core: campaign %s: parallel execution (Workers=%d) needs a Runner.Factory",
				c.Name, c.Workers)
		}
		for i := range targets {
			ops, err := r.Factory.New()
			if err != nil {
				return sum, fmt.Errorf("core: campaign %s: worker %d: %w", c.Name, i, err)
			}
			targets[i] = ops
		}
	} else {
		// Sequential forking executes on the runner's own target, like a
		// one-worker pool — or on the golden run's re-minted replacement
		// when a hang retired the original.
		targets[0] = gops
	}
	wk := make([]*forkWorker, workers)
	for i, ops := range targets {
		w := &forkWorker{r: r, tech: tech, src: src, budget: budget}
		if err := w.bind(ops); err != nil {
			return sum, fmt.Errorf("core: campaign %s: worker %d: %w", c.Name, i, err)
		}
		wk[i] = w
	}

	// Round-robin jobs across workers by plan position (deterministic), then
	// order each worker's slice by first injection time so restores walk
	// forward through the checkpoint grid and the LRU pool stays warm.
	slices := make([][]forkJob, workers)
	for k, j := range jobs {
		slices[k%workers] = append(slices[k%workers], j)
	}
	for _, sl := range slices {
		sort.Slice(sl, func(a, b int) bool {
			if sl[a].firstTime != sl[b].firstTime {
				return sl[a].firstTime < sl[b].firstTime
			}
			return sl[a].idx < sl[b].idx
		})
	}

	resCh := make(chan poolResult, workers)
	var halted atomic.Bool
	stage := r.startLogStage()
	var retiredOps atomic.Bool // the worker running on r.ops abandoned it to a hang
	var wg sync.WaitGroup
	for i := range wk {
		wg.Add(1)
		go func(w *forkWorker, slice []forkJob, tid int32) {
			defer wg.Done()
			tagWorker(w.ops, tid)
			for _, j := range slice {
				// Pause/Stop are honoured between experiments like every
				// other engine; a coordinator halt ends dispatch early.
				if halted.Load() || r.checkpoint() != nil {
					return
				}
				res := poolResult{idx: j.idx, name: j.name}
				gsp := r.Recorder.BeginGroup(j.name, tid)
				res.out = r.runExperiment(w.ops, w.run, j.plan, j.idx, tid)
				gsp.End()
				if res.out.hung {
					res.quarantined = true
					if r.Recorder.Journal() != nil {
						r.traceCtx(j.name, j.idx, 0, tid).Emit(obsv.EvQuarantine, "fork worker target retired; checkpoint pool invalidated")
					}
					if w.ops == r.ops {
						retiredOps.Store(true)
					}
					nops, err := r.mintTarget()
					// Quarantine invalidates the instance's checkpoint pool: the
					// replacement gets a whole new worker with an empty pool, so
					// nothing cached on the poisoned target survives. A fresh
					// struct, not a rebind — a hung attempt's goroutine still
					// owns the old worker and may be reading its pool.
					if err == nil {
						nw := &forkWorker{r: r, tech: tech, src: src, budget: budget}
						if err = nw.bind(nops); err == nil {
							w = nw
						}
					}
					if err != nil {
						res.lost = err
						resCh <- res
						return
					}
					tagWorker(w.ops, tid)
				}
				resCh <- res
			}
			w.ops.SetDetailMode(false)
		}(wk[i], slices[i], int32(i+1))
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Results arrive in completion order but are released to the logging
	// stage in plan order through a reorder buffer, so the logged row
	// sequence matches a sequential, non-forking run.
	t := r.newTally(&sum, stage, func() { halted.Store(true) }, c.NExperiments, workers)
	buffered := make(map[int]dbase.ExperimentRow)
	frontier := 0 // next position in jobs (ascending plan order) to release
	for res := range resCh {
		if !t.admit(res) {
			continue
		}
		buffered[res.idx] = r.outcomeRow(res.name, "", res.out)
		t.account(res)
		for ; frontier < len(jobs); frontier++ {
			row, ok := buffered[jobs[frontier].idx]
			if !ok {
				break
			}
			delete(buffered, jobs[frontier].idx)
			stage.put(row)
		}
	}
	// Rows completed past a stop/halt gap are logged too (ascending plan
	// order): the resume scan skips them, exactly like the completion-order
	// pool.
	if len(buffered) > 0 && t.firstErr == nil {
		rest := make([]int, 0, len(buffered))
		for idx := range buffered {
			rest = append(rest, idx)
		}
		sort.Ints(rest)
		for _, idx := range rest {
			stage.put(buffered[idx])
		}
	}
	err := t.finish(len(jobs))
	if retiredOps.Load() {
		*opsPoisoned = true
	}
	return sum, err
}
