// Command crashtest is the blackbox durability harness for the WAL-backed
// campaign store: it SIGKILLs a live chaos campaign at a random seeded point,
// reopens the store, and verifies that recovery honours the ack contract —
// every experiment the store acknowledged before the kill is present after
// reopen — then resumes the campaign to completion and checks that the
// resumed campaign's rows and analysis are bit-identical to a no-crash
// reference run.
//
// The methodology follows the classic storage-engine blackbox test: the
// parent forks a child process that runs the campaign against a
// strict-sync WAL store and prints "ACK <experiment>" to stdout only after
// the store call returns — which, under SyncEvery=1, is after the record is
// fsynced. The parent kills the child with SIGKILL (no cleanup, no atexit)
// after a seeded random delay, so kills land in every window: mid group
// commit, mid image write, between a checkpoint's image rename and its log
// reset, or after completion. An aggressively small auto-checkpoint
// threshold makes the checkpoint windows common rather than rare.
//
// The acked set is a one-directional oracle: acked ⊆ recovered. Recovery may
// legitimately hold more (records fsynced but killed before the ack line was
// written); it may never hold less, and resume may never double-apply — the
// final store must hold exactly NExperiments + 1 rows (the reference run)
// and match the no-crash reference byte for byte.
//
// With -sim the harness swaps the SIGKILL child for vfs.Faulty: the campaign
// runs in-process over a fault-injecting filesystem armed with a seeded crash
// point (every operation past it dies with ErrCrashed) plus transient write,
// fsync, torn-write and sync-lie faults, then Crash() discards everything not
// fsynced — the power-cut the SIGKILL mode can only approximate. The same
// oracles apply (acked ⊆ recovered, bit-identical resume), except that
// iterations where an fsync lied skip the ack-subset check: a lying disk
// legitimately loses acknowledged records, and the test instead demands that
// recovery still comes up clean and resumes to the exact reference state.
// Because no process is forked, -sim covers hundreds of seeds per second.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"goofi"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/vfs"
)

// childEnv carries the child's JSON config; its presence switches the binary
// (and the test binary, via TestMain) into child mode.
const childEnv = "GOOFI_CRASHTEST_CHILD"

func main() {
	if maybeRunChild() {
		return
	}
	opt := options{}
	flag.IntVar(&opt.Iterations, "n", 20, "SIGKILL iterations")
	flag.Int64Var(&opt.Seed, "seed", 1, "base seed; iteration i uses seed+i for campaign and kill timing")
	flag.IntVar(&opt.Experiments, "experiments", 200, "experiments per campaign")
	flag.StringVar(&opt.Chaos, "chaos", "err=0.03,panic=0.01,seed=7", "chaos spec for the campaign target (empty = none)")
	flag.Int64Var(&opt.CheckpointBytes, "checkpoint-bytes", 32<<10, "WAL auto-checkpoint threshold (small = frequent checkpoint crash windows)")
	flag.BoolVar(&opt.Sim, "sim", false, "in-process simulated crashes via the vfs.Faulty filesystem instead of SIGKILL")
	flag.BoolVar(&opt.Serve, "serve", false, "drain/restart cycles against a forked goofi serve daemon instead of SIGKILL")
	flag.StringVar(&opt.SimFaults, "sim-faults", "write=0.01,sync=0.01,torn=0.01,lie=0.005,dirsync=1",
		"vfs.Faulty spec layered under the store in -sim mode (seed and crashat are set per iteration)")
	flag.BoolVar(&opt.Verbose, "v", false, "per-iteration detail")
	flag.Parse()
	run := runHarness
	if opt.Sim {
		run = runSimHarness
	}
	if opt.Serve {
		run = runServeHarness
	}
	if err := run(os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest:", err)
		os.Exit(1)
	}
}

// options configures one harness run.
type options struct {
	Iterations      int
	Seed            int64
	Experiments     int
	Chaos           string
	CheckpointBytes int64
	Sim             bool
	Serve           bool
	SimFaults       string
	Verbose         bool
}

// childConfig is what the parent hands the child through childEnv.
type childConfig struct {
	DB              string `json:"db"`
	Campaign        string `json:"campaign"`
	Chaos           string `json:"chaos"`
	CheckpointBytes int64  `json:"checkpointBytes"`
}

// runHarness executes opt.Iterations crash-recover-resume-verify cycles.
func runHarness(out *os.File, opt options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	horizon, err := killHorizon(exe, opt)
	if err != nil {
		return err
	}
	killed, completed := 0, 0
	for i := 0; i < opt.Iterations; i++ {
		res, err := runIteration(exe, opt, i, horizon)
		if err != nil {
			return fmt.Errorf("iteration %d (seed %d): %w", i, opt.Seed+int64(i), err)
		}
		if res.killedLive {
			killed++
		} else {
			completed++
		}
		if opt.Verbose {
			fmt.Fprintf(out, "iter %2d: seed=%d kill=%v acked=%d recovered=%d resumed=%d %s\n",
				i, opt.Seed+int64(i), res.killDelay, res.acked, res.recovered, res.resumed, res.outcome)
		}
	}
	fmt.Fprintf(out, "crashtest PASS: %d iterations (%d killed live, %d completed before the kill), %d experiments each, kill horizon %v\n",
		opt.Iterations, killed, completed, opt.Experiments, horizon.Round(time.Millisecond))
	return nil
}

// iterResult summarises one iteration for the verbose log.
type iterResult struct {
	killDelay  time.Duration
	acked      int
	recovered  int
	resumed    int
	killedLive bool
	outcome    string
}

// campaignFor builds the iteration's campaign definition — the canonical
// chaos-campaign shape of the repo's golden tests, seeded per iteration.
func campaignFor(name string, seed int64, n int) (goofi.Campaign, error) {
	w, err := goofi.GetWorkload("bubblesort")
	if err != nil {
		return goofi.Campaign{}, err
	}
	m, err := faultmodel.ParseModel("transient")
	if err != nil {
		return goofi.Campaign{}, err
	}
	return goofi.Campaign{
		Name:           name,
		Workload:       w,
		Technique:      goofi.TechSCIFI,
		Model:          m,
		LocationFilter: "chain:internal.core",
		NExperiments:   n,
		Seed:           seed,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}, nil
}

// chaosOps wraps a fresh Thor target in the iteration's chaos layer and arms
// the retry budget the chaos needs. Hang chaos is deliberately absent from
// the default spec: watchdog timeouts depend on wall-clock and would break
// the bit-identical reference comparison.
func chaosOps(spec string, c *goofi.Campaign) (goofi.TargetOperations, error) {
	var ops goofi.TargetOperations = goofi.NewThorTarget()
	if spec == "" {
		return ops, nil
	}
	cfg, err := goofi.ParseFlakyConfig(spec)
	if err != nil {
		return nil, err
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 3
	}
	return goofi.NewFlakyTarget(ops, cfg), nil
}

// horizonSlack stretches a measured uncrashed run into a crash horizon: a
// crash point drawn uniformly below it lands live about eight times in nine
// and after the campaign's end about one time in nine.
func horizonSlack(n int64) int64 { return n + n/8 }

// killHorizon times one uncrashed child run of the harness's first campaign,
// from fork to exit, and stretches it by horizonSlack. Kill delays drawn
// below it then land anywhere from before the first ack to after
// completion, however fast the engine runs experiments. An untimed run on a
// store of its own goes first: the first exec of a freshly built binary
// pays its page faults, which no later child does.
func killHorizon(exe string, opt options) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "goofi-crashtest-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	c, err := campaignFor("crash-horizon", opt.Seed, opt.Experiments)
	if err != nil {
		return 0, err
	}
	var elapsed time.Duration
	for _, name := range []string{"warmup.db", "campaign.db"} {
		dbPath := filepath.Join(dir, name)
		if err := stageStore(dbPath, c); err != nil {
			return 0, err
		}
		cfg, err := json.Marshal(childConfig{
			DB: dbPath, Campaign: c.Name,
			Chaos: opt.Chaos, CheckpointBytes: opt.CheckpointBytes,
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, done, err := runAndKill(exe, string(cfg), time.Hour); err != nil || !done {
			return 0, fmt.Errorf("uncrashed horizon run did not complete: %v", err)
		}
		elapsed = time.Since(start)
	}
	return time.Duration(horizonSlack(int64(elapsed))), nil
}

func runIteration(exe string, opt options, iter int, horizon time.Duration) (iterResult, error) {
	var res iterResult
	seed := opt.Seed + int64(iter)
	rng := rand.New(rand.NewSource(seed))
	campaign := fmt.Sprintf("crash-%03d", iter)

	dir, err := os.MkdirTemp("", "goofi-crashtest-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "campaign.db")

	// Stage the store: target inventory + campaign definition, durably
	// saved, so the child only opens and runs (its kill window covers the
	// reference run, the experiments, flushes and checkpoints).
	c, err := campaignFor(campaign, seed, opt.Experiments)
	if err != nil {
		return res, err
	}
	if err := stageStore(dbPath, c); err != nil {
		return res, err
	}

	// Fork the child and kill it after a seeded delay below the measured
	// horizon, so kills land anywhere from before the first ack to after
	// completion.
	res.killDelay = time.Duration(rng.Int63n(int64(horizon)))
	cfg, err := json.Marshal(childConfig{
		DB: dbPath, Campaign: campaign,
		Chaos: opt.Chaos, CheckpointBytes: opt.CheckpointBytes,
	})
	if err != nil {
		return res, err
	}
	acked, childDone, err := runAndKill(exe, string(cfg), res.killDelay)
	if err != nil {
		return res, err
	}
	res.acked = len(acked)
	res.killedLive = !childDone

	// Verify the ack contract on the crashed store through the plain
	// (read-only recovery) open path.
	recovered, err := recoveredNames(dbPath, campaign)
	if err != nil {
		return res, err
	}
	res.recovered = len(recovered)
	for _, name := range acked {
		if !recovered[name] {
			return res, fmt.Errorf("acknowledged experiment %s lost after SIGKILL (acked %d, recovered %d)",
				name, len(acked), len(recovered))
		}
	}

	// Resume to completion on the WAL store, then verify no double-counting
	// and bit-identity against a no-crash in-memory reference run.
	got, gotReport, resumedCount, err := resumeCampaign(dbPath, c, opt)
	if err != nil {
		return res, err
	}
	res.resumed = resumedCount
	if len(got) != opt.Experiments+1 { // + the golden reference run
		return res, fmt.Errorf("after resume: %d rows, want %d (double-counted or lost)",
			len(got), opt.Experiments+1)
	}
	want, wantReport, err := referenceRun(c, opt)
	if err != nil {
		return res, err
	}
	if len(got) != len(want) {
		return res, fmt.Errorf("resumed rows %d != reference rows %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return res, fmt.Errorf("experiment %s differs between resumed and no-crash run:\n got %+v\nwant %+v",
				want[i].ExperimentName, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotReport, wantReport) {
		return res, fmt.Errorf("analysis diverged:\n resumed   %+v\n reference %+v", gotReport, wantReport)
	}
	if childDone {
		res.outcome = "completed-before-kill"
	} else {
		res.outcome = fmt.Sprintf("killed live, recovered+resumed to %d rows", len(got))
	}
	return res, nil
}

// stageStore creates the campaign database the child will run against.
func stageStore(dbPath string, c goofi.Campaign) error {
	store, err := dbase.OpenStore(dbPath)
	if err != nil {
		return err
	}
	ops := goofi.NewThorTarget()
	if err := goofi.RegisterTarget(store, ops, "crashtest target"); err != nil {
		return err
	}
	if err := c.Validate(ops); err != nil {
		return err
	}
	if err := store.PutCampaign(c.Row(ops.Name())); err != nil {
		return err
	}
	return store.Save()
}

// runAndKill starts the child campaign process, SIGKILLs it after delay, and
// returns the experiments it acknowledged plus whether it finished first.
// The stdout pipe is drained to EOF even after the kill: an ACK line the
// child wrote before dying testifies to an fsynced record regardless of when
// the parent reads it.
func runAndKill(exe, cfgJSON string, delay time.Duration) (acked []string, done bool, err error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+cfgJSON)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	killer := time.AfterFunc(delay, func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ACK "):
			acked = append(acked, strings.TrimPrefix(line, "ACK "))
		case line == "DONE":
			done = true
		}
	}
	waitErr := cmd.Wait()
	killedInTime := !killer.Stop() // the timer fired (though the child may have exited first)
	if waitErr != nil && !killedInTime {
		return nil, false, fmt.Errorf("child failed before the kill: %w", waitErr)
	}
	if done && waitErr == nil {
		return acked, true, nil
	}
	return acked, false, nil
}

// recoveredNames opens the crashed store via the plain recovery path and
// returns the experiment rows it holds.
func recoveredNames(dbPath, campaign string) (map[string]bool, error) {
	return recoveredNamesFS(vfs.OS{}, dbPath, campaign)
}

func recoveredNamesFS(fsys vfs.FS, dbPath, campaign string) (map[string]bool, error) {
	store, err := dbase.OpenStoreFS(dbPath, fsys)
	if err != nil {
		return nil, fmt.Errorf("reopen crashed store: %w", err)
	}
	return store.ExperimentNames(campaign)
}

// resumeCampaign reopens the crashed store in WAL mode and runs the campaign
// to completion, returning the final experiment rows, the analysis report
// and how many experiments the resumed run executed (vs skipped as already
// logged).
func resumeCampaign(dbPath string, c goofi.Campaign, opt options) ([]dbase.ExperimentRow, goofi.Report, int, error) {
	return resumeCampaignFS(vfs.OS{}, dbPath, c, opt)
}

func resumeCampaignFS(fsys vfs.FS, dbPath string, c goofi.Campaign, opt options) ([]dbase.ExperimentRow, goofi.Report, int, error) {
	store, err := dbase.OpenStoreWALFS(dbPath, fsys, sqldb.WALOptions{SyncEvery: 1, CheckpointBytes: opt.CheckpointBytes})
	if err != nil {
		return nil, goofi.Report{}, 0, fmt.Errorf("reopen for resume: %w", err)
	}
	defer store.Close()
	ops, err := chaosOps(opt.Chaos, &c)
	if err != nil {
		return nil, goofi.Report{}, 0, err
	}
	r := core.NewRunner(ops, store, c)
	sum, err := r.Run(context.Background())
	if err != nil {
		return nil, goofi.Report{}, 0, fmt.Errorf("resume run: %w", err)
	}
	if sum.Completed+sum.Skipped != c.NExperiments {
		return nil, goofi.Report{}, 0, fmt.Errorf("resume accounting: completed %d + skipped %d != %d",
			sum.Completed, sum.Skipped, c.NExperiments)
	}
	report, err := goofi.Analyze(store, c.Name)
	if err != nil {
		return nil, goofi.Report{}, 0, err
	}
	rows, err := store.Experiments(c.Name)
	if err != nil {
		return nil, goofi.Report{}, 0, err
	}
	if err := store.Save(); err != nil {
		return nil, goofi.Report{}, 0, err
	}
	return rows, report, sum.Completed, nil
}

// referenceRun executes the same campaign start-to-finish in memory — the
// no-crash truth the recovered store must match bit for bit.
func referenceRun(c goofi.Campaign, opt options) ([]dbase.ExperimentRow, goofi.Report, error) {
	store, err := dbase.NewMemoryStore()
	if err != nil {
		return nil, goofi.Report{}, err
	}
	ops := goofi.NewThorTarget()
	if err := goofi.RegisterTarget(store, ops, "crashtest target"); err != nil {
		return nil, goofi.Report{}, err
	}
	if err := store.PutCampaign(c.Row(ops.Name())); err != nil {
		return nil, goofi.Report{}, err
	}
	cops, err := chaosOps(opt.Chaos, &c)
	if err != nil {
		return nil, goofi.Report{}, err
	}
	r := core.NewRunner(cops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		return nil, goofi.Report{}, fmt.Errorf("reference run: %w", err)
	}
	report, err := goofi.Analyze(store, c.Name)
	if err != nil {
		return nil, goofi.Report{}, err
	}
	rows, err := store.Experiments(c.Name)
	if err != nil {
		return nil, goofi.Report{}, err
	}
	return rows, report, nil
}

// --- simulated-crash mode ---

// runSimHarness is runHarness with the SIGKILL child replaced by an
// in-process vfs.Faulty crash: no fork, no wall-clock kill timing, hundreds
// of seeds per second.
func runSimHarness(out *os.File, opt options) error {
	horizon, err := crashOpHorizon(opt)
	if err != nil {
		return err
	}
	crashed, completed := 0, 0
	for i := 0; i < opt.Iterations; i++ {
		res, err := runSimIteration(opt, i, horizon)
		if err != nil {
			return fmt.Errorf("sim iteration %d (seed %d): %w", i, opt.Seed+int64(i), err)
		}
		if res.killedLive {
			crashed++
		} else {
			completed++
		}
		if opt.Verbose {
			fmt.Fprintf(out, "sim %3d: seed=%d acked=%d recovered=%d resumed=%d %s\n",
				i, opt.Seed+int64(i), res.acked, res.recovered, res.resumed, res.outcome)
		}
	}
	fmt.Fprintf(out, "crashtest -sim PASS: %d iterations (%d crashed live, %d completed before the crash point), %d experiments each, crash horizon %d ops\n",
		opt.Iterations, crashed, completed, opt.Experiments, horizon)
	return nil
}

// crashOpHorizon counts the filesystem operations of one uncrashed run of
// the harness's first campaign over vfs.Faulty with the harness's fault spec
// and no crash point, and stretches the count by horizonSlack: the
// simulated-crash analogue of killHorizon.
func crashOpHorizon(opt options) (int64, error) {
	dir, err := os.MkdirTemp("", "goofi-crashtest-sim-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "campaign.db")
	c, err := campaignFor("sim-horizon", opt.Seed, opt.Experiments)
	if err != nil {
		return 0, err
	}
	if err := stageStore(dbPath, c); err != nil {
		return 0, err
	}
	fcfg, err := vfs.ParseFaultyConfig(opt.SimFaults)
	if err != nil {
		return 0, fmt.Errorf("bad -sim-faults: %w", err)
	}
	fcfg.Seed = opt.Seed
	fsys, err := vfs.NewFaulty(vfs.OS{}, fcfg)
	if err != nil {
		return 0, err
	}
	if _, err := simRun(fsys, dbPath, c, opt); err != nil {
		return 0, fmt.Errorf("uncrashed horizon run: %w", err)
	}
	return horizonSlack(fsys.Stats().Ops), nil
}

// runSimIteration stages a campaign store, runs it over a Faulty filesystem
// armed with a seeded crash point, simulates the power cut, and verifies the
// same oracles as the SIGKILL path: acked ⊆ recovered (unless an fsync lied —
// a lying disk legitimately loses acknowledged records) and a resume that is
// bit-identical to the no-crash reference run.
func runSimIteration(opt options, iter int, horizon int64) (iterResult, error) {
	var res iterResult
	seed := opt.Seed + int64(iter)
	rng := rand.New(rand.NewSource(seed))
	campaign := fmt.Sprintf("sim-%03d", iter)

	dir, err := os.MkdirTemp("", "goofi-crashtest-sim-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "campaign.db")

	// Stage through the plain OS: the staged image predates the power cut,
	// so Faulty snapshots it as durable the first time it touches it.
	c, err := campaignFor(campaign, seed, opt.Experiments)
	if err != nil {
		return res, err
	}
	if err := stageStore(dbPath, c); err != nil {
		return res, err
	}

	fcfg, err := vfs.ParseFaultyConfig(opt.SimFaults)
	if err != nil {
		return res, fmt.Errorf("bad -sim-faults: %w", err)
	}
	fcfg.Seed = seed
	// The crash point is drawn below the measured op horizon, so crashes
	// land anywhere from the opening header write to after campaign
	// completion.
	fcfg.CrashAtOp = 1 + rng.Int63n(horizon)
	fsys, err := vfs.NewFaulty(vfs.OS{}, fcfg)
	if err != nil {
		return res, err
	}

	acked, runErr := simRun(fsys, dbPath, c, opt)
	res.acked = len(acked)
	res.killedLive = runErr != nil
	if runErr != nil && !errors.Is(runErr, vfs.ErrCrashed) {
		if err := sameChaosDeath(c, opt, runErr); err != nil {
			return res, err
		}
		res.outcome = "campaign-failed (reference fails identically)"
		return res, nil
	}
	lied := fsys.Stats().SyncLies > 0

	// Power cut: every write and name not yet honestly fsynced is gone.
	if err := fsys.Crash(); err != nil {
		return res, fmt.Errorf("simulate crash: %w", err)
	}
	fsys.ClearCrashPoint()

	if !lied {
		recovered, err := recoveredNamesFS(fsys, dbPath, campaign)
		if err != nil {
			return res, err
		}
		res.recovered = len(recovered)
		for _, name := range acked {
			if !recovered[name] {
				return res, fmt.Errorf("acknowledged experiment %s lost after simulated crash (acked %d, recovered %d, crashat %d)",
					name, len(acked), len(recovered), fcfg.CrashAtOp)
			}
		}
	}

	// A lying fsync can destroy arbitrary durable state — up to and including
	// the staged target registration and campaign definition the resume
	// depends on (an image checkpoint whose temp-file sync lied but whose
	// rename committed leaves a truncated image: real lying-disk semantics).
	// Re-stage the definitions; the bit-identical final-state oracle below
	// still applies in full.
	if lied {
		if err := restage(fsys, dbPath, c); err != nil {
			return res, err
		}
	}

	// Resume over the same filesystem: transient, torn and lying faults stay
	// armed, so recovery itself must also ride out injected storage trouble.
	got, gotReport, resumedCount, err := resumeCampaignFS(fsys, dbPath, c, opt)
	if err != nil {
		// A crash that landed before the campaign's own chaos death leaves
		// that death to the resume, which must then die exactly as the
		// fault-free reference run does.
		if cause := errors.Unwrap(err); cause == nil || sameChaosDeath(c, opt, cause) != nil {
			return res, err
		}
		res.outcome = "crashed live, resume failed (reference fails identically)"
		return res, nil
	}
	res.resumed = resumedCount
	if len(got) != opt.Experiments+1 { // + the golden reference run
		return res, fmt.Errorf("after resume: %d rows, want %d (double-counted or lost)",
			len(got), opt.Experiments+1)
	}
	want, wantReport, err := referenceRun(c, opt)
	if err != nil {
		return res, err
	}
	if len(got) != len(want) {
		return res, fmt.Errorf("resumed rows %d != reference rows %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return res, fmt.Errorf("experiment %s differs between resumed and no-crash run:\n got %+v\nwant %+v",
				want[i].ExperimentName, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotReport, wantReport) {
		return res, fmt.Errorf("analysis diverged:\n resumed   %+v\n reference %+v", gotReport, wantReport)
	}
	switch {
	case !res.killedLive:
		res.outcome = "completed-before-crash"
	case lied:
		res.outcome = fmt.Sprintf("crashed live after a lied fsync, resumed to %d rows", len(got))
	default:
		res.outcome = fmt.Sprintf("crashed live, recovered+resumed to %d rows", len(got))
	}
	return res, nil
}

// sameChaosDeath checks a campaign that died of something other than the
// simulated crash: it must be the campaign's own target-level chaos, not
// storage. The target's fault plan is deterministic and independent of
// storage retries, so that is only acceptable when the fault-free in-memory
// reference run dies the same death.
func sameChaosDeath(c goofi.Campaign, opt options, runErr error) error {
	if vfs.IsInjected(runErr) {
		return fmt.Errorf("campaign died of an injected storage fault (transient retries should have absorbed it): %w", runErr)
	}
	if _, _, refErr := referenceRun(c, opt); refErr == nil || !strings.HasSuffix(refErr.Error(), runErr.Error()) {
		return fmt.Errorf("campaign died of a non-crash, non-storage fault the reference run does not reproduce (reference: %v): %w", refErr, runErr)
	}
	return nil
}

// restage re-registers the target inventory and campaign definition if a
// lying fsync destroyed them, touching only what is actually missing (a
// surviving target row cannot be replaced while campaign rows reference it).
func restage(fsys vfs.FS, dbPath string, c goofi.Campaign) error {
	store, err := dbase.OpenStoreFS(dbPath, fsys)
	if err != nil {
		return fmt.Errorf("restage after lied sync: %w", err)
	}
	ops := goofi.NewThorTarget()
	changed := false
	if _, err := store.GetTargetSystem(ops.Name()); err != nil {
		if err := goofi.RegisterTarget(store, ops, "crashtest target"); err != nil {
			return fmt.Errorf("restage after lied sync: %w", err)
		}
		changed = true
	}
	if _, err := store.GetCampaign(c.Name); err != nil {
		if err := store.PutCampaign(c.Row(ops.Name())); err != nil {
			return fmt.Errorf("restage after lied sync: %w", err)
		}
		changed = true
	}
	if !changed {
		return nil
	}
	if err := store.Save(); err != nil {
		return fmt.Errorf("restage after lied sync: %w", err)
	}
	return nil
}

// simRun runs the campaign over the faulty filesystem until it completes or
// the armed crash point kills it, returning the experiment names the store
// acknowledged before death.
func simRun(fsys vfs.FS, dbPath string, c goofi.Campaign, opt options) (acked []string, runErr error) {
	store, err := dbase.OpenStoreWALFS(dbPath, fsys, sqldb.WALOptions{SyncEvery: 1, CheckpointBytes: opt.CheckpointBytes})
	if err != nil {
		return nil, err
	}
	defer store.Close() // post-crash close is safe: the WAL swallows the dead handle
	col := &collectStore{Store: store}
	ops, err := chaosOps(opt.Chaos, &c)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner(ops, col, c)
	if _, err := r.Run(context.Background()); err != nil {
		return col.acked(), err
	}
	if err := store.Save(); err != nil {
		return col.acked(), err
	}
	return col.acked(), nil
}

// collectStore is the in-process analogue of ackStore: it records every
// experiment name the store acknowledged. No pipe protocol is needed — the
// "process" dies by ErrCrashed, not SIGKILL, so memory survives to testify.
// Under SyncEvery=1 an acknowledgement means the record's WAL append was
// fsynced (honestly, unless the fault plan lied).
type collectStore struct {
	*dbase.Store
	mu    sync.Mutex
	names []string
}

func (cs *collectStore) PutExperiment(row dbase.ExperimentRow) error {
	if err := cs.Store.PutExperiment(row); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.names = append(cs.names, row.ExperimentName)
	cs.mu.Unlock()
	return nil
}

func (cs *collectStore) PutExperiments(rows []dbase.ExperimentRow) error {
	if err := cs.Store.PutExperiments(rows); err != nil {
		return err
	}
	cs.mu.Lock()
	for _, r := range rows {
		cs.names = append(cs.names, r.ExperimentName)
	}
	cs.mu.Unlock()
	return nil
}

func (cs *collectStore) acked() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]string(nil), cs.names...)
}

// --- child mode ---

// maybeRunChild runs the child campaign when childEnv is set — or the serve
// daemon when serveEnv is — and then exits the process; it reports false
// otherwise. Called first thing from both main() and TestMain, so the same
// binary serves as parent and victim.
func maybeRunChild() bool {
	if cfgJSON := os.Getenv(serveEnv); cfgJSON != "" {
		os.Exit(runServeChild(cfgJSON))
	}
	cfgJSON := os.Getenv(childEnv)
	if cfgJSON == "" {
		return false
	}
	os.Exit(runChild(cfgJSON))
	return true // unreachable
}

// runChild opens the store in strict-sync WAL mode, runs the campaign and
// prints "ACK <experiment>" after every store acknowledgement — which under
// SyncEvery=1 means after the record hit disk. It is meant to die by SIGKILL
// at any point; everything it claims via ACK must survive that.
func runChild(cfgJSON string) int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child: bad config:", err)
		return 2
	}
	store, err := dbase.OpenStoreWAL(cfg.DB, sqldb.WALOptions{SyncEvery: 1, CheckpointBytes: cfg.CheckpointBytes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		return 1
	}
	row, err := store.GetCampaign(cfg.Campaign)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		return 1
	}
	c, err := goofi.CampaignFromRow(row)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		return 1
	}
	ops, err := chaosOps(cfg.Chaos, &c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		return 1
	}
	r := core.NewRunner(ops, &ackStore{Store: store, w: os.Stdout}, c)
	if _, err := r.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child: run:", err)
		return 1
	}
	if err := store.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child: save:", err)
		return 1
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child: close:", err)
		return 1
	}
	fmt.Println("DONE")
	return 0
}

// ackStore decorates the campaign store with the ack protocol: an "ACK"
// line is emitted only after the wrapped call returned, i.e. after the WAL
// record was fsynced under the strict sync policy. The embedded Store
// provides the rest of core.CampaignStore.
type ackStore struct {
	*dbase.Store
	mu sync.Mutex
	w  *os.File
}

func (a *ackStore) PutExperiment(row dbase.ExperimentRow) error {
	if err := a.Store.PutExperiment(row); err != nil {
		return err
	}
	a.ack(row.ExperimentName)
	return nil
}

func (a *ackStore) PutExperiments(rows []dbase.ExperimentRow) error {
	if err := a.Store.PutExperiments(rows); err != nil {
		return err
	}
	for _, r := range rows {
		a.ack(r.ExperimentName)
	}
	return nil
}

func (a *ackStore) ack(name string) {
	a.mu.Lock()
	fmt.Fprintf(a.w, "ACK %s\n", name)
	a.mu.Unlock()
}
