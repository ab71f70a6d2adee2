package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// openDB opens the campaign database named by -db.
func openDB(path string) (*dbase.Store, error) {
	if path == "" {
		return nil, fmt.Errorf("-db is required")
	}
	return dbase.OpenStore(path)
}

// parseWALSync parses the -wal-sync spec: comma-separated "every=N" (fsync
// after every Nth group-commit batch; 1 = strict, fsync before every ack)
// and "interval=D" (upper bound on how long a deferred fsync may lag).
func parseWALSync(spec string) (sqldb.WALOptions, error) {
	opts := sqldb.WALOptions{SyncEvery: 1}
	if spec == "" {
		return opts, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return opts, fmt.Errorf("wal-sync: %q is not key=value", part)
		}
		switch key {
		case "every":
			if _, err := fmt.Sscanf(val, "%d", &opts.SyncEvery); err != nil || opts.SyncEvery < 1 {
				return opts, fmt.Errorf("wal-sync: every=%q is not a positive integer", val)
			}
		case "interval":
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("wal-sync: interval=%q: %w", val, err)
			}
			opts.SyncInterval = d
		default:
			return opts, fmt.Errorf("wal-sync: unknown key %q (want every, interval)", key)
		}
	}
	return opts, nil
}

// cmdConfigure implements the configuration phase (§3.1): it registers the
// simulated Thor-RD target and stores its fault-location inventory.
func cmdConfigure(args []string) error {
	fs := flag.NewFlagSet("configure", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	desc := fs.String("desc", "simulated Thor RD target system", "target description")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	ops := target.NewDefaultThorTarget()
	if err := core.RegisterTarget(db, ops, *desc); err != nil {
		return err
	}
	locs, err := db.FaultLocations(ops.Name())
	if err != nil {
		return err
	}
	fmt.Printf("configured target %q: %d fault locations across %d scan chains\n",
		ops.Name(), len(locs), len(ops.Chains()))
	for _, ci := range ops.Chains() {
		fmt.Printf("  chain %-18s %5d bits (%d writable)\n", ci.Name, ci.Bits, len(ci.Writable))
	}
	return db.Save()
}

// cmdSetup implements the set-up phase (§3.2, Fig. 6): campaign definition
// or merging.
func cmdSetup(args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	name := fs.String("campaign", "", "campaign name")
	wl := fs.String("workload", "", "workload name")
	tech := fs.String("technique", core.TechSCIFI, "fault-injection technique")
	model := fs.String("model", "transient", "fault model")
	locations := fs.String("locations", "", "fault-location filter")
	n := fs.Int("n", 100, "number of experiments")
	seed := fs.Int64("seed", 1, "campaign PRNG seed")
	tmin := fs.Uint64("tmin", 10, "earliest injection time (instructions)")
	tmax := fs.Uint64("tmax", 1000, "latest injection time (instructions)")
	trig := fs.String("trigger", "", "event trigger (scifi-triggered)")
	detail := fs.Bool("detail", false, "log state after every instruction")
	notes := fs.String("notes", "", "free-form notes")
	merge := fs.String("merge", "", "comma-separated campaigns to merge instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-campaign is required")
	}
	if *merge != "" {
		row, err := db.MergeCampaigns(*name, strings.Split(*merge, ",")...)
		if err != nil {
			return err
		}
		fmt.Printf("merged campaign %q: %d experiments over %q\n",
			row.CampaignName, row.NExperiments, row.LocationFilter)
		return db.Save()
	}
	w, err := workload.Get(*wl)
	if err != nil {
		return err
	}
	m, err := faultmodel.ParseModel(*model)
	if err != nil {
		return err
	}
	c := core.Campaign{
		Name:           *name,
		Workload:       w,
		Technique:      *tech,
		Model:          m,
		LocationFilter: faultmodel.Filter(*locations),
		TriggerSpec:    *trig,
		NExperiments:   *n,
		Seed:           *seed,
		InjectMinTime:  *tmin,
		InjectMaxTime:  *tmax,
		DetailMode:     *detail,
		Notes:          *notes,
	}
	ops := target.NewDefaultThorTarget()
	if err := ops.InitTestCard(); err != nil {
		return err
	}
	if err := c.Validate(ops); err != nil {
		return err
	}
	if err := db.PutCampaign(c.Row(ops.Name())); err != nil {
		return err
	}
	fmt.Printf("campaign %q defined: %d %s experiments on %s (%s faults into %s)\n",
		c.Name, c.NExperiments, c.Technique, c.Workload.Name, c.Model, c.LocationFilter)
	return db.Save()
}

// cmdRun implements the fault-injection phase (§3.3) with the progress
// output of Fig. 7. SIGINT ends the campaign cleanly after the in-flight
// experiment. The fault-tolerance flags (-retries, -retry-backoff, -timeout)
// and the -chaos target wrapper exercise the engine's robustness layer.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	name := fs.String("campaign", "", "campaign name")
	quiet := fs.Bool("quiet", false, "suppress per-experiment progress")
	workers := fs.Int("workers", 1, "parallel workers, each on its own target instance (1 = sequential)")
	retries := fs.Int("retries", 0, "retries per experiment after transient target faults")
	retryBackoff := fs.Duration("retry-backoff", 0, "base delay between retries, doubling per attempt")
	timeout := fs.Duration("timeout", 0, "wall-clock watchdog per experiment attempt (0 = cycle budget only)")
	fork := fs.Bool("fork", false, "golden-run checkpoint forking: execute only each experiment's post-injection suffix")
	cpEvery := fs.Uint64("checkpoint-every", 0, "checkpoint grid spacing in cycles for -fork (0 = auto, ~tmax/16)")
	cpMem := fs.Int64("checkpoint-mem", 0, "checkpoint memory budget for -fork, in MiB (0 = 64)")
	chaos := fs.String("chaos", "", `wrap the target in a chaos fault injector, e.g. "err=0.02,panic=0.005,hang=0.01,seed=3"`)
	storageChaos := fs.String("storage-chaos", "", `inject seeded storage faults under the campaign database, e.g. "write=0.01,sync=0.01,torn=0.005,seed=7"`)
	provenance := fs.Bool("provenance", false, "record causal wide events (plan/attempt/inject/retry/WAL/storage) and persist them for `goofi trace CAMPAIGN`")
	metricsOut := fs.String("metrics-out", "", "write a metrics snapshot (JSON) to this file after the run")
	traceOut := fs.String("trace-out", "", "journal every leaf-phase span and write the journal as a Chrome trace_event file to this file after the run")
	debugAddr := fs.String("debug-addr", "", `serve expvar + pprof + /metrics + /campaign/events on this address during the run, e.g. ":6060"`)
	monitorEvery := fs.Duration("monitor-interval", time.Second, "period of live event frames and persisted interval metrics")
	wal := fs.Bool("wal", false, "write-ahead-logged store: O(batch) flushes, group commit, crash recovery")
	walSync := fs.String("wal-sync", "", `group-commit sync policy for -wal, "every=N,interval=D" (default every=1: fsync before every ack)`)
	walCkpt := fs.Int64("wal-checkpoint", 0, "auto-checkpoint threshold for -wal, in MiB (0 = 8)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("run: -workers must be at least 1, got %d", *workers)
	}
	// Validate the sync spec even without -wal: a typo'd durability flag
	// should fail loudly, not be silently ignored.
	opts, perr := parseWALSync(*walSync)
	if perr != nil {
		return perr
	}
	// -storage-chaos swaps the campaign database's filesystem for a seeded
	// fault injector: goofi's own storage path becomes the target system.
	var fsys vfs.FS = vfs.OS{}
	var storageFS *vfs.Faulty
	if *storageChaos != "" {
		cfg, err := vfs.ParseFaultyConfig(*storageChaos)
		if err != nil {
			return err
		}
		storageFS, err = vfs.NewFaulty(fsys, cfg)
		if err != nil {
			return err
		}
		fsys = storageFS
	}
	var db *dbase.Store
	var err error
	switch {
	case *wal:
		if *dbPath == "" {
			return fmt.Errorf("-db is required")
		}
		opts.CheckpointBytes = *walCkpt << 20
		db, err = dbase.OpenStoreWALFS(*dbPath, fsys, opts)
		if err != nil {
			return err
		}
		defer db.Close()
		if st := db.DB().WALStats(); st.Replayed > 0 {
			logger.Info("wal recovery", "replayed", st.Replayed, "generation", st.Generation)
		}
	case storageFS != nil:
		if *dbPath == "" {
			return fmt.Errorf("-db is required")
		}
		db, err = dbase.OpenStoreFS(*dbPath, fsys)
		if err != nil {
			return err
		}
	default:
		db, err = openDB(*dbPath)
		if err != nil {
			return err
		}
	}
	row, err := db.GetCampaign(*name)
	if err != nil {
		return err
	}
	c, err := core.CampaignFromRow(row)
	if err != nil {
		return err
	}
	c.Workers = *workers
	c.RetryLimit = *retries
	c.RetryBackoff = *retryBackoff
	c.ExperimentTimeout = *timeout
	c.Fork = *fork
	c.CheckpointEvery = *cpEvery
	c.CheckpointMem = *cpMem << 20
	var ops target.Operations = target.NewDefaultThorTarget()
	factory := target.DefaultThorFactory()
	if *chaos != "" {
		cfg, err := target.ParseFlakyConfig(*chaos)
		if err != nil {
			return err
		}
		ops = target.NewFlaky(ops, cfg)
		factory = target.FlakyFactory(factory, cfg)
		// A chaos run needs the robustness layer armed or it would just
		// crash/wedge: default to a retry budget, and to a watchdog when the
		// chaos includes hangs.
		if *retries == 0 {
			c.RetryLimit = 3
		}
		if cfg.HangRate > 0 && *timeout <= 0 {
			c.ExperimentTimeout = 30 * time.Second
		}
	}
	// The recorder wraps outermost — around any chaos layer — so measured
	// phase times include the chaos delays the engine actually experienced.
	var rec *obsv.Recorder
	var events *obsv.Broadcaster
	if *metricsOut != "" || *traceOut != "" || *debugAddr != "" || *provenance {
		rec = obsv.New(obsv.Options{Trace: *traceOut != "", Journal: *provenance})
		db.SetRecorder(rec)
		if storageFS != nil {
			storageFS.SetRecorder(rec)
		}
		ops = target.NewMeasured(ops, rec)
		factory = target.MeasuredFactory(factory, rec)
		if *debugAddr != "" {
			events = obsv.NewBroadcaster()
			addr, err := startDebugServer(*debugAddr, rec, events)
			if err != nil {
				return err
			}
			logger.Info("debug server started",
				"vars", "http://"+addr+"/debug/vars",
				"metrics", "http://"+addr+"/metrics",
				"events", "http://"+addr+"/campaign/events",
				"watch", "goofi watch "+addr)
		}
	}
	r := core.NewRunner(ops, db, c)
	r.Factory = factory
	r.Recorder = rec
	r.Events = events
	r.MonitorInterval = *monitorEvery
	r.Logger = logger
	if !*quiet {
		r.OnProgress = func(p core.Progress) {
			extra := ""
			if p.Retries > 0 || p.Hangs > 0 || p.Quarantined > 0 {
				extra = fmt.Sprintf("  [retries=%d hangs=%d quarantined=%d]", p.Retries, p.Hangs, p.Quarantined)
			}
			fmt.Printf("\r[%-40s] %d/%d  %-40s%s", bar(p.Done, p.Total, 40), p.Done, p.Total, p.LastOutcome, extra)
			if p.Done == p.Total {
				fmt.Println()
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sum, err := r.Run(ctx)
	if err != nil {
		fmt.Println()
		// A stopped campaign still saved its completed experiments — and its
		// partial metrics/trace are exactly what a post-mortem wants.
		if oerr := writeObsv(rec, *metricsOut, *traceOut); oerr != nil {
			logger.Error("observability output failed", "err", oerr)
		}
		if *provenance {
			drainJournal(db, c.Name, rec)
		}
		if saveErr := db.Save(); saveErr != nil {
			return saveErr
		}
		if errors.Is(err, core.ErrStopped) {
			logger.Warn("campaign stopped; re-run the same command to resume",
				"campaign", sum.Campaign,
				"done", sum.Skipped+sum.Completed, "total", c.NExperiments)
		}
		return err
	}
	fmt.Printf("campaign %q complete: %d experiments", sum.Campaign, sum.Completed)
	if sum.Skipped > 0 {
		fmt.Printf(" (+%d resumed)", sum.Skipped)
	}
	fmt.Println()
	for reason, count := range sum.Terminations {
		fmt.Printf("  %-14s %d\n", reason+":", count)
	}
	if sum.Retries > 0 || sum.Hangs > 0 || sum.Quarantined > 0 {
		fmt.Printf("  fault tolerance: %d retries, %d hangs, %d targets quarantined\n",
			sum.Retries, sum.Hangs, sum.Quarantined)
	}
	if err := writeObsv(rec, *metricsOut, *traceOut); err != nil {
		return err
	}
	if *provenance {
		drainJournal(db, c.Name, rec)
	}
	if err := db.Save(); err != nil {
		return err
	}
	if st := db.DB().WALStats(); db.DB().WALEnabled() {
		logger.Info("wal",
			"records", st.Records, "bytes", st.Bytes,
			"commit-batches", st.CommitBatches, "fsyncs", st.Fsyncs,
			"io-retries", st.IORetries,
			"checkpoints", st.Checkpoints, "generation", st.Generation)
	}
	if storageFS != nil {
		st := storageFS.Stats()
		logger.Info("storage chaos",
			"ops", st.Ops, "injected", st.InjectedErrors, "sticky", st.StickyErrors,
			"torn-writes", st.TornWrites, "sync-lies", st.SyncLies, "crashes", st.Crashes)
	}
	return nil
}

// drainJournal persists the -provenance journal into the campaign's trace
// table. Best-effort: a failed drain is logged, not returned, so it cannot
// mask the run's own outcome.
func drainJournal(db *dbase.Store, campaign string, rec *obsv.Recorder) {
	j := rec.Journal()
	if j == nil || j.Len() == 0 {
		return
	}
	runID, err := db.PutTraceJournal(campaign, j)
	if err != nil {
		logger.Error("provenance journal persist failed", "err", err)
		return
	}
	logger.Info("provenance journal persisted",
		"campaign", campaign, "run", runID, "events", j.Len(), "dropped", j.Dropped())
}

func bar(done, total, width int) string {
	if total == 0 {
		return ""
	}
	n := done * width / total
	return strings.Repeat("=", n) + strings.Repeat(" ", width-n)
}

// cmdAnalyze implements the analysis phase (§3.4).
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	name := fs.String("campaign", "", "campaign name")
	genSQL := fs.Bool("gen-sql", false, "print the generated SQL analysis script")
	byLocation := fs.Int("by-location", 0, "also print the N most critical fault locations")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	rep, err := analysis.Classify(db, *name)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Print(rep)
	}
	if *byLocation > 0 {
		stats, err := analysis.LocationBreakdown(db, *name, target.NewDefaultThorTarget())
		if err != nil {
			return err
		}
		fmt.Println("\nmost critical fault locations:")
		fmt.Print(analysis.FormatLocationTable(stats, *byLocation))
	}
	if *genSQL {
		fmt.Println("\n-- generated analysis script --")
		fmt.Print(analysis.GenerateSQL(*name))
	}
	return db.Save()
}

// cmdTrace has two modes. With positional arguments — `goofi trace
// CAMPAIGN [EXPERIMENT]` — it renders the provenance timeline recorded by a
// `-provenance` run: the campaign rollup, or one experiment's causal chain
// from plan draw through injections, chaos faults, retries and the WAL
// commit batch that made its row durable. With the -campaign/-experiment
// flags it keeps its original behaviour: rerun an experiment in detail mode
// and print the error-propagation report against a detail-mode reference run
// (§3.3 and the parentExperiment scenario of §2.3).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	name := fs.String("campaign", "", "campaign name")
	expName := fs.String("experiment", "", "experiment to rerun in detail mode")
	limit := fs.Int("limit", 20, "trace lines to print")
	chromeOut := fs.String("chrome", "", "also export the provenance events as a Chrome trace_event file (timeline mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return traceTimeline(*dbPath, fs.Arg(0), fs.Arg(1), *chromeOut)
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	row, err := db.GetCampaign(*name)
	if err != nil {
		return err
	}
	c, err := core.CampaignFromRow(row)
	if err != nil {
		return err
	}
	ops := target.NewDefaultThorTarget()
	r := core.NewRunner(ops, db, c)

	refDetail, err := detailOf(db, r, *name+core.RefSuffix)
	if err != nil {
		return err
	}
	expDetail, err := detailOf(db, r, *expName)
	if err != nil {
		return err
	}
	pr, err := analysis.ComparePropagation(refDetail, expDetail)
	if err != nil {
		return err
	}
	fmt.Println("propagation:", pr)
	fmt.Printf("trace of %s (first %d instructions):\n", *expName, *limit)
	for i, s := range expDetail.Trace {
		if i >= *limit {
			fmt.Printf("  ... %d more\n", len(expDetail.Trace)-i)
			break
		}
		fmt.Printf("  %6d  %#06x  %s\n", s.Cycle, s.PC, s.Disasm)
	}
	return db.Save()
}

// traceTimeline renders the provenance events a `-provenance` run persisted:
// the per-experiment rollup, or — given an experiment — its causal chain.
// A bare experiment argument ("e0004") is resolved under the campaign.
func traceTimeline(dbPath, campaign, experiment, chromeOut string) error {
	db, err := openDB(dbPath)
	if err != nil {
		return err
	}
	events, err := db.TraceEvents(campaign)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("trace: no provenance events for campaign %q (run it with -provenance)", campaign)
	}
	if chromeOut != "" {
		if err := writeChromeTrace(chromeOut, events); err != nil {
			return err
		}
		logger.Info("chrome trace written", "file", chromeOut, "events", len(events))
	}
	if experiment != "" {
		if !strings.Contains(experiment, "/") {
			experiment = campaign + "/" + experiment
		}
		return obsv.FormatTimeline(os.Stdout, events, experiment)
	}
	obsv.FormatTraceSummary(os.Stdout, events)
	return nil
}

// detailOf returns the detail-mode state vector of an experiment, rerunning
// it if no detail rerun is logged yet.
func detailOf(db *dbase.Store, r *core.Runner, experiment string) (*core.StateVector, error) {
	detailName := experiment + core.DetailSuffix
	row, err := db.GetExperiment(detailName)
	if err != nil {
		if detailName, err = r.RerunDetail(experiment); err != nil {
			return nil, err
		}
		if row, err = db.GetExperiment(detailName); err != nil {
			return nil, err
		}
	}
	return core.DecodeStateVector(row.StateVector)
}

// cmdList prints the database inventory.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	targets, err := db.TargetSystems()
	if err != nil {
		return err
	}
	fmt.Println("target systems:")
	for _, t := range targets {
		ts, err := db.GetTargetSystem(t)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s mem=%dK rom=%dK  %s\n", t, ts.MemSize/1024, ts.ROMSize/1024, ts.Description)
	}
	camps, err := db.Campaigns()
	if err != nil {
		return err
	}
	fmt.Println("campaigns:")
	for _, cName := range camps {
		c, err := db.GetCampaign(cName)
		if err != nil {
			return err
		}
		exps, err := db.Experiments(cName)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %-14s %-10s n=%-5d logged=%d\n",
			cName, c.Technique, c.Workload, c.NExperiments, len(exps))
	}
	return nil
}

// cmdWorkloads lists the bundled workloads.
func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			return err
		}
		kind := "batch"
		if !w.TerminatesSelf {
			kind = fmt.Sprintf("loop ×%d (%s)", w.MaxIterations, w.Env)
		}
		fmt.Printf("  %-12s %-10s %s\n", w.Name, kind, w.Description)
	}
	return nil
}

// cmdTechniques lists the registered fault-injection techniques.
func cmdTechniques(args []string) error {
	fs := flag.NewFlagSet("techniques", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	desc := map[string]string{
		core.TechSCIFI:           "scan-chain implemented fault injection (breakpoints + TAP shifts)",
		core.TechSCIFICheckpoint: "SCIFI with snapshot/restore of the pre-window prefix",
		core.TechSWIFIPre:        "pre-runtime SWIFI: corrupt the memory image before execution",
		core.TechSWIFIRuntime:    "runtime SWIFI: halt and corrupt memory mid-run",
		core.TechPinLevel:        "pin-level injection on the boundary-scan chain",
		core.TechSCIFITriggered:  "SCIFI injected on an execution event trigger",
	}
	for _, name := range core.Techniques() {
		fmt.Printf("  %-18s %s\n", name, desc[name])
	}
	return nil
}

// cmdLocations prints a target's fault-location inventory — the hierarchical
// list of Fig. 5.
func cmdLocations(args []string) error {
	fs := flag.NewFlagSet("locations", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	targetName := fs.String("target", "thor-rd", "target system name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	locs, err := db.FaultLocations(*targetName)
	if err != nil {
		return err
	}
	if len(locs) == 0 {
		return fmt.Errorf("target %q has no registered locations; run goofi configure first", *targetName)
	}
	lastChain := ""
	for _, l := range locs {
		if l.ChainName != lastChain {
			fmt.Printf("%s\n", l.ChainName)
			lastChain = l.ChainName
		}
		access := "rw"
		if !l.Writable {
			access = "ro"
		}
		fmt.Printf("  %-34s bits [%d, %d)  %s\n",
			l.LocationName, l.FirstBit, l.FirstBit+l.Width, access)
	}
	return nil
}

// cmdDelete removes a campaign and its logged experiments.
func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	name := fs.String("campaign", "", "campaign to delete")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-campaign is required")
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	if err := db.DeleteCampaign(*name); err != nil {
		return err
	}
	fmt.Printf("campaign %q deleted\n", *name)
	return db.Save()
}

// cmdShow decodes and summarises one logged experiment: its plan,
// termination, and the state-vector differences against the reference run.
func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	dbPath := fs.String("db", "", "campaign database file")
	expName := fs.String("experiment", "", "experiment to show")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expName == "" {
		return fmt.Errorf("-experiment is required")
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	row, err := db.GetExperiment(*expName)
	if err != nil {
		return err
	}
	fmt.Printf("experiment:  %s\n", row.ExperimentName)
	if row.ParentExperiment != "" {
		fmt.Printf("parent:      %s\n", row.ParentExperiment)
	}
	fmt.Printf("campaign:    %s\n", row.CampaignName)
	fmt.Printf("data:        %s\n", row.ExperimentData)
	fmt.Printf("termination: %s", row.TerminationReason)
	if row.Mechanism != "" {
		fmt.Printf(" (%s)", row.Mechanism)
	}
	fmt.Printf("  cycles=%d iterations=%d\n", row.Cycles, row.Iterations)

	sv, err := core.DecodeStateVector(row.StateVector)
	if err != nil {
		return err
	}
	fmt.Printf("state:       %d chains, %d memory words, %d env iterations, %d trace samples\n",
		len(sv.Chains), len(sv.Memory), len(sv.Env), len(sv.Trace))

	refRow, err := db.GetExperiment(row.CampaignName + core.RefSuffix)
	if err != nil {
		return nil // no reference (should not happen); plain dump only
	}
	refSV, err := core.DecodeStateVector(refRow.StateVector)
	if err != nil {
		return err
	}
	fmt.Printf("vs reference: %s\n", sv.DiffSummary(refSV))
	return nil
}
