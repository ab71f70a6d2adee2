package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
)

// This file is golden-run checkpoint forking (Campaign.Fork). It changes
// three things about a campaign and leaves the engine alone: the reference
// run also snapshots the complete system state — CPU, caches, memory, debug
// unit, TAP stage and environment simulator — at a grid of cycles plus every
// distinct first-injection time of the campaign's plans; the jobs run in
// first-injection-time order; and each experiment restores the nearest
// checkpoint at or before its first injection and executes only the suffix,
// instead of re-running the fault-free prefix from reset. The plans, the
// reference row, dispatch and logging are the plain campaign's (runPool).
//
// The optimisation is behaviour-preserving for a deterministic target:
// restoring the snapshot keyed by time t yields exactly the state a plain run
// holds when its first breakpoint at t fires, because the snapshot was taken
// at the first reference cycle >= t and every earlier cycle is < t. Plans are
// still drawn in experiment order from the single seeded PRNG, so every
// logged row and state vector is bit-identical to a non-forking run of the
// same seed: forking reorders execution, never the plan stream.

// defaultCheckpointMem is the harvest/pool memory budget when
// Campaign.CheckpointMem is zero.
const defaultCheckpointMem = 64 << 20

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

// forkWorker is the forked experiment body bound to one target instance: it
// owns the target's imported checkpoint pool, a CheckpointMem-bounded LRU
// over the source's snapshots. A quarantined instance takes its worker (and
// pool) down with it: the replacement target gets a fresh worker with an
// empty pool, so a checkpoint cached on a poisoned target is never trusted
// again, and a hung attempt's goroutine may go on reading the old pool.
type forkWorker struct {
	r      *Runner
	tech   technique
	src    *forkSource
	budget int64

	cs  target.CheckpointStore
	lru []uint64 // imported checkpoint ids, least recently used first
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

// forkPlan is what Campaign.Fork adds to a campaign: the candidate
// checkpoint cycles, the golden reference run that harvests them, and the
// experiment body that restores them.
type forkPlan struct {
	r          *Runner
	tech       technique
	candidates []uint64 // ascending, starting with 0
	budget     int64
}

// newForkPlan keys every job by its first injection time and orders the jobs
// by it (plan order among equals), so restores walk forward through the
// checkpoint grid and each worker's pool stays warm. The candidates are the
// configured grid plus every distinct first-injection time, so most
// experiments restore at exactly their injection point and re-execute no
// prefix cycles.
func (r *Runner) newForkPlan(tech technique, jobs []poolJob) *forkPlan {
	c := r.campaign
	harvest := map[uint64]bool{0: true}
	for i := range jobs {
		jobs[i].firstTime = forkFirstTime(c.Technique, jobs[i].plan)
		harvest[jobs[i].firstTime] = true
	}
	slices.SortStableFunc(jobs, func(a, b poolJob) int { return cmp.Compare(a.firstTime, b.firstTime) })
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
	slices.Sort(candidates)
	return &forkPlan{r: r, tech: tech, candidates: candidates, budget: cmp.Or(c.CheckpointMem, defaultCheckpointMem)}
}

// golden is the reference-run body: the plain fault-free execution,
// interleaved with checkpoint saves at the candidate cycles into the
// CheckpointStore of the target it runs on. Saving via breakpoints is
// outcome-invariant — the debug unit halts between instructions without
// touching architectural state — so the logged reference row is
// byte-identical to a non-forking reference. When the harvest overflows the
// memory budget, the checkpoint closest to its predecessor is dropped
// (losing the least restore coverage); the cycle-0 snapshot, which carries
// the full golden image the deltas alias, is always kept.
func (f *forkPlan) golden(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	cs, ok := target.AsCheckpointStore(ops)
	if !ok {
		return Experiment{}, fmt.Errorf("core: golden-run target %s has no checkpoint store", ops.Name())
	}
	// Retry hygiene: a partial harvest from a failed attempt is dropped.
	cs.DropCheckpoints()
	if err := prepare(ops, c); err != nil {
		return Experiment{}, err
	}
	var saved []uint64
	save := func(t uint64) error {
		if err := cs.SaveCheckpointAt(t); err != nil {
			return err
		}
		saved = append(saved, t)
		f.r.Recorder.Count("fork.checkpoints.saved", 1)
		for cs.CheckpointBytes() > f.budget && len(saved) > 1 {
			drop := 1
			for k := 2; k < len(saved); k++ {
				if saved[k]-saved[k-1] < saved[drop]-saved[drop-1] {
					drop = k
				}
			}
			cs.DropCheckpointAt(saved[drop])
			saved = append(saved[:drop], saved[drop+1:]...)
			f.r.Recorder.Count("fork.checkpoints.dropped", 1)
		}
		return nil
	}
	if err := save(0); err != nil {
		return Experiment{}, err
	}
	for _, t := range f.candidates[1:] {
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
			f.r.Recorder.Count("fork.checkpoints.skipped", 1)
		}
	}
	return finish(ops, c, plan, 0)
}

// source exports the harvest the golden run left on ops into a read-only
// fork source shared by every worker (exports are immutable and alias the
// golden image, so this is O(checkpoints), not O(memory)), clears ops'
// store, and returns the experiment body for runPool: each call binds a
// fresh forkWorker, with an empty pool, to one target, dropping any
// checkpoint the target carries.
func (f *forkPlan) source(ops target.Operations) func(target.Operations) (Algorithm, error) {
	cs, _ := target.AsCheckpointStore(ops) // the golden run succeeded on it
	src := &forkSource{snaps: make(map[uint64]any, len(f.candidates))}
	for _, t := range f.candidates {
		if snap, ok := cs.ExportCheckpoint(t); ok {
			src.cycles = append(src.cycles, t)
			src.snaps[t] = snap
		}
	}
	cs.DropCheckpoints()
	f.r.Recorder.SetGauge("fork.checkpoints.harvested", int64(len(src.cycles)))
	return func(ops target.Operations) (Algorithm, error) {
		cs, ok := target.AsCheckpointStore(ops)
		if !ok {
			return nil, fmt.Errorf("core: fork worker target %s has no checkpoint store", ops.Name())
		}
		cs.DropCheckpoints()
		f.r.Recorder.SetGauge("fork.pool.size", 0)
		w := &forkWorker{r: f.r, tech: f.tech, src: src, budget: f.budget, cs: cs}
		return w.run, nil
	}
}
