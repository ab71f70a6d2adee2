// Command goofi is the command-line interface of the GOOFI reproduction —
// the stand-in for the paper's graphical user interface. Its subcommands map
// onto the four phases of §3:
//
//	goofi configure  — configuration phase: register a target system and its
//	                   fault locations (Fig. 5)
//	goofi setup      — set-up phase: define or merge campaigns (Fig. 6)
//	goofi run        — fault-injection phase with a progress display (Fig. 7)
//	goofi analyze    — analysis phase: outcome classification and coverage
//	goofi trace      — detail-mode rerun + error-propagation report (§3.3)
//	goofi list       — inventory of targets, campaigns and experiments
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goofi:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	args, err := setupLogging(args)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "configure":
		return cmdConfigure(rest)
	case "setup":
		return cmdSetup(rest)
	case "run":
		return cmdRun(rest)
	case "analyze":
		return cmdAnalyze(rest)
	case "trace":
		return cmdTrace(rest)
	case "list":
		return cmdList(rest)
	case "workloads":
		return cmdWorkloads(rest)
	case "techniques":
		return cmdTechniques(rest)
	case "locations":
		return cmdLocations(rest)
	case "delete":
		return cmdDelete(rest)
	case "show":
		return cmdShow(rest)
	case "stats":
		return cmdStats(rest)
	case "watch":
		return cmdWatch(rest)
	case "report":
		return cmdReport(rest)
	case "serve":
		return cmdServe(rest)
	case "submit":
		return cmdSubmit(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `GOOFI — Generic Object-Oriented Fault Injection (Go reproduction)

Usage:
  goofi [-log-level LEVEL] [-log-json] SUBCOMMAND ...
  goofi configure -db FILE [-desc TEXT]
  goofi setup     -db FILE -campaign NAME -workload W -technique T
                  -locations FILTER [-model M] [-n N] [-seed S]
                  [-tmin C] [-tmax C] [-trigger SPEC] [-detail] [-notes TEXT]
  goofi setup     -db FILE -campaign NAME -merge A,B[,C...]
  goofi run       -db FILE -campaign NAME [-quiet] [-workers W]
                  [-retries N] [-retry-backoff D] [-timeout D] [-chaos SPEC]
                  [-wal] [-wal-sync SPEC] [-wal-checkpoint MB] [-provenance]
                  [-metrics-out FILE] [-trace-out FILE] [-debug-addr ADDR]
  goofi stats     -metrics FILE | -diff OLD.json NEW.json
  goofi watch     [-campaign TENANT/NAME] [-retries N] HOST:PORT
  goofi serve     [-addr :8080] [-data DIR] [-queue N] [-concurrency N]
                  [-drain-timeout D]
  goofi submit    -addr HOST:PORT [-retries N] (-spec FILE | -tenant T
                  -campaign NAME -workload W -locations FILTER -n N [-seed S]
                  [-workers W] [-chaos SPEC])
  goofi report    -db FILE [-campaigns A,B,...] [-format text|csv|html]
                  [-o FILE] [-locations=false]
  goofi analyze   -db FILE -campaign NAME [-gen-sql]
  goofi trace     -db FILE CAMPAIGN [EXPERIMENT] [-chrome FILE]
  goofi trace     -db FILE -campaign NAME -experiment NAME
  goofi show      -db FILE -experiment NAME
  goofi list      -db FILE
  goofi delete    -db FILE -campaign NAME
  goofi locations -db FILE [-target NAME]
  goofi workloads | goofi techniques

Workloads:   bubblesort, matmul, crc16, fib, control
Techniques:  scifi, scifi-checkpoint, swifi-pre, swifi-runtime, pin-level,
             scifi-triggered
Models:      transient | transient-multiple,m=K |
             intermittent,burst=K,spacing=C | permanent,period=C,stuck=V
Locations:   chain:<name>[/<field>] and mem:<lo>-<hi>, comma separated
Chaos spec:  err=P,panic=P,hang=P[,seed=S][,hangdur=D] — wraps the target in a
             seeded transient-fault injector to exercise retry/quarantine/watchdog
Durability:  -wal appends every store mutation to FILE.wal via group commit
             instead of rewriting the image per save, replays the log on open
             after a crash, and folds it into FILE at checkpoints.
             -wal-sync "every=N,interval=D" relaxes the fsync policy (default
             every=1: acknowledged rows are fsynced, SIGKILL-safe);
             -wal-checkpoint MB sets the auto-checkpoint threshold (default 8)
Observability: -metrics-out dumps per-phase timings and store latency
             histograms as JSON (render with goofi stats -metrics FILE,
             compare runs with goofi stats -diff OLD NEW);
             -trace-out journals every leaf phase next to the provenance
             events and writes the journal as a Chrome trace_event file for
             chrome://tracing (the rendering of goofi trace -chrome);
             -debug-addr serves expvar + pprof + Prometheus /metrics + the
             /campaign/events live stream during the run (follow it from
             another terminal with goofi watch HOST:PORT; watch reconnects
             with backoff if the stream drops, and -campaign TENANT/NAME
             follows a goofi serve campaign instead). Runs with
             -metrics-out or -debug-addr also persist interval and final
             engine metrics into the CampaignRunMetrics table, which
             goofi report joins with the analysis results for cross-campaign
             comparisons. Diagnostics go to stderr via -log-level/-log-json.
Provenance:  goofi run -provenance journals causal wide events — plan draws,
             per-attempt outcomes, injections, chaos faults, retry backoffs,
             hangs/quarantines, checkpoint restores, storage faults, row
             durability and WAL commit batches — and persists them in the
             campaign database. Render with goofi trace CAMPAIGN (rollup),
             goofi trace CAMPAIGN EXPERIMENT (one causal chain), or
             -chrome FILE (Chrome trace_event export). goofi serve records
             the same journal per campaign and streams it as NDJSON at
             GET /campaigns/TENANT/NAME/trace.
`)
}
