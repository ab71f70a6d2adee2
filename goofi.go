// Package goofi is a from-scratch Go reproduction of GOOFI, the Generic
// Object-Oriented Fault Injection tool (Aidemark, Vinter, Folkesson,
// Karlsson — DSN 2001).
//
// GOOFI orchestrates fault-injection campaigns against a target system. Its
// architecture has three layers (paper Fig. 1): a user interface on top, the
// fault-injection algorithms and target-system framework in the middle, and
// a SQL database holding all configuration and logged state at the bottom.
// This package is the public facade over those layers:
//
//	ops := goofi.NewThorTarget()            // simulated Thor-RD target
//	db, _ := goofi.OpenDatabase("camp.db")  // embedded SQL database
//	goofi.RegisterTarget(db, ops, "lab target")
//
//	campaign := goofi.Campaign{
//	    Name:           "demo",
//	    Workload:       goofi.MustWorkload("bubblesort"),
//	    Technique:      goofi.TechSCIFI,
//	    Model:          goofi.Model{Kind: goofi.Transient},
//	    LocationFilter: "chain:internal.core",
//	    NExperiments:   500,
//	    Seed:           1,
//	    InjectMinTime:  10,
//	    InjectMaxTime:  1400,
//	}
//	summary, _ := goofi.RunCampaign(context.Background(), ops, db, campaign, nil)
//	report, _ := goofi.Analyze(db, "demo")
//	fmt.Println(report)
//
// Supported fault-injection techniques: Scan-Chain Implemented Fault
// Injection (SCIFI) through an IEEE-1149.1-style TAP — plain, checkpointed
// and event-triggered — pre-runtime and runtime Software Implemented Fault
// Injection (SWIFI), and pin-level injection on the boundary-scan chain. Fault models:
// single/multiple transient, intermittent and permanent (stuck-at)
// bit-flips. The analysis phase classifies outcomes into the paper's §3.4
// taxonomy (detected per mechanism / escaped / latent / overwritten) and
// computes error-detection coverage with confidence intervals.
package goofi

import (
	"context"
	"encoding/json"
	"io"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/preinject"
	"goofi/internal/service"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/thor"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// Campaign configuration, runner and results.
type (
	// Campaign describes one fault-injection campaign (CampaignData row).
	Campaign = core.Campaign
	// Runner executes a campaign with pause/resume/stop control.
	Runner = core.Runner
	// Progress is delivered after every experiment (the Fig. 7 window).
	Progress = core.Progress
	// Summary reports a completed campaign.
	Summary = core.Summary
	// Experiment is one experiment's outcome. Its State holds the logged
	// state vector in wire encoding; a custom technique may leave it nil to
	// log the empty vector.
	Experiment = core.Experiment
	// StateVector is the decoded logged observable state of an experiment
	// (DecodeStateVector).
	StateVector = core.StateVector
)

// Fault models and locations.
type (
	// Model is a configured fault model.
	Model = faultmodel.Model
	// ModelKind selects transient/intermittent/permanent behaviour.
	ModelKind = faultmodel.Kind
	// Location is one injectable bit of the target system.
	Location = faultmodel.Location
	// LocationFilter compactly selects sets of locations.
	LocationFilter = faultmodel.Filter
	// Plan is one experiment's injection schedule.
	Plan = faultmodel.Plan
)

// Target-system abstraction.
type (
	// TargetOperations is the abstract operation set every target system
	// implements (the paper's FaultInjectionAlgorithms abstract methods).
	TargetOperations = target.Operations
	// TargetFactory mints independent target instances for parallel
	// campaign execution (one per worker).
	TargetFactory = target.Factory
	// BaseTarget is the Framework template: embed it and override only the
	// operations your techniques need (paper Fig. 3).
	BaseTarget = target.BaseTarget
	// ThorTarget is the bundled simulated Thor-RD target system.
	ThorTarget = target.ThorTarget
	// Termination reports how an experiment ended.
	Termination = target.Termination
	// TerminationSpec configures an experiment's termination conditions.
	TerminationSpec = target.TerminationSpec
	// Workload is a target program with its campaign metadata.
	Workload = workload.Spec
	// EnvSimulator models the target's physical environment.
	EnvSimulator = envsim.Simulator
	// CheckpointStore is the optional multi-slot snapshot capability a target
	// needs for golden-run checkpoint forking (Campaign.Fork): save/restore
	// full system state keyed by cycle id, with export/import portability
	// across sibling instances and byte-level cost accounting.
	CheckpointStore = target.CheckpointStore
)

// AsCheckpointStore reports whether ops genuinely supports multi-slot
// checkpointing — wrappers answer for their innermost target — and returns
// the store surface of the outermost layer.
func AsCheckpointStore(ops TargetOperations) (CheckpointStore, bool) {
	return target.AsCheckpointStore(ops)
}

// Database and analysis.
type (
	// Database is the GOOFI campaign store (TargetSystemData, CampaignData,
	// LoggedSystemState and friends; paper Fig. 4).
	Database = dbase.Store
	// Report is the campaign-level analysis result (§3.4 taxonomy).
	Report = analysis.Report
	// PropagationReport compares detail-mode traces (§3.3).
	PropagationReport = analysis.PropagationReport
	// PreInjectionAnalysis holds liveness tables for efficient injection
	// planning (§4 extension).
	PreInjectionAnalysis = preinject.Analysis
)

// Technique names.
const (
	TechSCIFI          = core.TechSCIFI
	TechSWIFIPre       = core.TechSWIFIPre
	TechSWIFIRuntime   = core.TechSWIFIRuntime
	TechPinLevel       = core.TechPinLevel
	TechSCIFITriggered = core.TechSCIFITriggered
	// TechSCIFICheckpoint is SCIFI with snapshot/restore amortisation of the
	// pre-injection-window execution prefix.
	TechSCIFICheckpoint = core.TechSCIFICheckpoint
)

// Fault-model kinds.
const (
	Transient         = faultmodel.Transient
	TransientMultiple = faultmodel.TransientMultiple
	Intermittent      = faultmodel.Intermittent
	Permanent         = faultmodel.Permanent
)

// Outcome labels of the analysis phase.
const (
	OutcomeDetected    = analysis.OutcomeDetected
	OutcomeEscaped     = analysis.OutcomeEscaped
	OutcomeLatent      = analysis.OutcomeLatent
	OutcomeOverwritten = analysis.OutcomeOverwritten
)

// NewThorTarget builds the simulated Thor-RD target system with its default
// configuration (64 KiB memory, parity-protected caches, scan chains).
func NewThorTarget() *ThorTarget { return target.NewDefaultThorTarget() }

// NewThorTargetWithConfig builds a Thor target with a custom processor
// configuration.
func NewThorTargetWithConfig(cfg thor.Config) *ThorTarget { return target.NewThorTarget(cfg) }

// ThorConfig returns the default processor configuration for customisation.
func ThorConfig() thor.Config { return thor.DefaultConfig() }

// ThorTargetFactory mints independent default-configured Thor targets — set
// it as Runner.Factory (or pass it to RunCampaignParallel) to run campaigns
// with Campaign.Workers parallel workers.
func ThorTargetFactory() TargetFactory { return target.DefaultThorFactory() }

// ThorTargetFactoryWithConfig mints independent Thor targets sharing a
// custom processor configuration.
func ThorTargetFactoryWithConfig(cfg thor.Config) TargetFactory { return target.ThorFactory(cfg) }

// SimpleTargetFactory mints independent simple accumulator-machine targets.
func SimpleTargetFactory() TargetFactory { return target.SimpleFactory() }

// OpenDatabase opens (or creates) a file-backed campaign database.
func OpenDatabase(path string) (*Database, error) { return dbase.OpenStore(path) }

// WALOptions tunes a write-ahead-logged campaign database: the group-commit
// sync policy (SyncEvery/SyncInterval) and the automatic checkpoint
// threshold (CheckpointBytes).
type WALOptions = sqldb.WALOptions

// OpenDatabaseWAL opens (or creates) a file-backed campaign database in
// write-ahead-logging mode: mutations are group-committed to <path>.wal
// before store calls return, crash recovery replays the log on open, and
// Save checkpoints the log into the database image. Call Close when done.
func OpenDatabaseWAL(path string, opts WALOptions) (*Database, error) {
	return dbase.OpenStoreWAL(path, opts)
}

// NewMemoryDatabase creates an in-memory campaign database.
func NewMemoryDatabase() (*Database, error) { return dbase.NewMemoryStore() }

// Storage fault injection (self-injection): every file operation of the
// campaign database — image writes, WAL appends, fsyncs, checkpoints —
// routes through an FS seam, and FaultyFS wraps that seam with seeded,
// deterministic fault injection. The same method GOOFI applies to target
// systems, applied to the tool's own storage path: `goofi run
// -storage-chaos` proves acknowledged rows survive torn writes, lying
// fsyncs and injected crashes.
type (
	// FS is the filesystem seam the campaign store's file operations route
	// through; the default is the real filesystem (OSFilesystem).
	FS = vfs.FS
	// FaultyFS injects seeded deterministic storage faults: transient and
	// sticky errors per op class, torn writes, sync lies with
	// lost-unsynced-data simulation, and an in-process crash point. Every
	// decision is a pure function of (seed, op-index), so any observed
	// failure replays exactly.
	FaultyFS = vfs.Faulty
	// FaultyFSConfig configures injected storage-fault rates, seed and
	// schedule.
	FaultyFSConfig = vfs.FaultyConfig
	// FaultyFSStats reports how many storage faults a FaultyFS injected.
	FaultyFSStats = vfs.FaultyStats
	// FaultSchedule is an explicit op-indexed storage-fault plan with a text
	// codec ("12:werr,40:torn"), the replay currency for failures found by
	// seed search.
	FaultSchedule = vfs.Schedule
)

// OSFilesystem returns the passthrough FS over the real filesystem.
func OSFilesystem() FS { return vfs.OS{} }

// NewFaultyFS wraps base with seeded storage-fault injection.
func NewFaultyFS(base FS, cfg FaultyFSConfig) (*FaultyFS, error) { return vfs.NewFaulty(base, cfg) }

// ParseFaultyFSConfig parses a -storage-chaos spec like
// "write=0.01,sync=0.01,torn=0.005,seed=7" (keys: open, read, write, sync,
// rename, sticky, torn, lie, seed, crashat, dirsync, sched).
func ParseFaultyFSConfig(spec string) (FaultyFSConfig, error) { return vfs.ParseFaultyConfig(spec) }

// ParseFaultSchedule parses the canonical "op:kind,..." schedule text form.
func ParseFaultSchedule(spec string) (FaultSchedule, error) { return vfs.ParseSchedule(spec) }

// IsInjectedStorageError reports whether err was injected by a FaultyFS.
func IsInjectedStorageError(err error) bool { return vfs.IsInjected(err) }

// OpenDatabaseFS is OpenDatabase over an explicit filesystem — pass a
// FaultyFS to inject storage faults under the campaign database.
func OpenDatabaseFS(path string, fsys FS) (*Database, error) {
	return dbase.OpenStoreFS(path, fsys)
}

// OpenDatabaseWALFS is OpenDatabaseWAL over an explicit filesystem: image
// load, WAL replay, group commits and checkpoints all route through fsys.
func OpenDatabaseWALFS(path string, fsys FS, opts WALOptions) (*Database, error) {
	return dbase.OpenStoreWALFS(path, fsys, opts)
}

// RegisterTarget stores the target's description and fault-location
// inventory in the database (the configuration phase, §3.1).
func RegisterTarget(db *Database, ops TargetOperations, description string) error {
	return core.RegisterTarget(db, ops, description)
}

// NewRunner builds a campaign runner with pause/resume/stop control.
func NewRunner(ops TargetOperations, db *Database, c Campaign) *Runner {
	return core.NewRunner(ops, db, c)
}

// RunCampaign validates and executes a campaign, logging the reference run
// and every experiment to the database. onProgress may be nil.
func RunCampaign(ctx context.Context, ops TargetOperations, db *Database, c Campaign, onProgress func(Progress)) (Summary, error) {
	r := core.NewRunner(ops, db, c)
	r.OnProgress = onProgress
	return r.Run(ctx)
}

// RunCampaignParallel is RunCampaign with a worker pool: c.Workers workers,
// each on its own factory-minted target, with the logged result row-identical
// to a sequential run (plans are pre-drawn in experiment order from the
// campaign seed). ops still performs validation and the reference run.
func RunCampaignParallel(ctx context.Context, ops TargetOperations, factory TargetFactory,
	db *Database, c Campaign, onProgress func(Progress)) (Summary, error) {
	r := core.NewRunner(ops, db, c)
	r.OnProgress = onProgress
	r.Factory = factory
	return r.Run(ctx)
}

// Analyze classifies every experiment of a campaign against its reference
// run, stores the AnalysisResult rows and returns the report (§3.4).
func Analyze(db *Database, campaign string) (Report, error) {
	return analysis.Classify(db, campaign)
}

// GenerateAnalysisSQL emits the SQL analysis script for a campaign — the
// "automatic generation of analysis software" extension (§4).
func GenerateAnalysisSQL(campaign string) string { return analysis.GenerateSQL(campaign) }

// Workloads lists the bundled workload names.
func Workloads() []string { return workload.Names() }

// GetWorkload fetches a bundled workload by name.
func GetWorkload(name string) (Workload, error) { return workload.Get(name) }

// MustWorkload fetches a bundled workload and panics on unknown names; use
// it for program initialisation with constant names.
func MustWorkload(name string) Workload {
	w, err := workload.Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Techniques lists the registered fault-injection techniques.
func Techniques() []string {
	core.RegisterBuiltins()
	return core.Techniques()
}

// EDMs lists the target processor's error detection mechanisms.
func EDMs() []string { return thor.EDMs() }

// AnalyzeLiveness performs the pre-injection liveness analysis of a workload
// on a fresh target (§4 extension).
func AnalyzeLiveness(ops *ThorTarget, w Workload) (*PreInjectionAnalysis, error) {
	return preinject.Analyze(ops, w)
}

// LivePlanner returns a plan function restricted to live locations, to be
// assigned to Runner.PlanFunc.
func LivePlanner(a *PreInjectionAnalysis, m Model) *preinject.Planner {
	return &preinject.Planner{Analysis: a, Model: m}
}

// ComparePropagation diffs the detail-mode traces of a reference and a
// faulted experiment (§3.3 error-propagation analysis).
func ComparePropagation(ref, faulted *StateVector) (PropagationReport, error) {
	return analysis.ComparePropagation(ref, faulted)
}

// DecodeStateVector decodes a LoggedSystemState.stateVector blob.
func DecodeStateVector(data []byte) (*StateVector, error) {
	return core.DecodeStateVector(data)
}

// RefSuffix and DetailSuffix name the special experiment rows.
const (
	RefSuffix    = core.RefSuffix
	DetailSuffix = core.DetailSuffix
)

// CampaignRow is the stored form of a campaign (one CampaignData row).
type CampaignRow = dbase.CampaignRow

// ExperimentRow and AnalysisRow are the logged-state and classification rows
// of the LoggedSystemState / AnalysisResult tables.
type (
	ExperimentRow = dbase.ExperimentRow
	AnalysisRow   = dbase.AnalysisRow
)

// CampaignFromRow rebuilds a campaign from its stored row, resolving the
// workload by name.
func CampaignFromRow(r CampaignRow) (Campaign, error) { return core.CampaignFromRow(r) }

// RegisterEnvSimulator installs a custom environment simulator constructor
// under a name that Workload.Env can reference (paper Fig. 1: the
// environment simulator is user-provided).
func RegisterEnvSimulator(name string, ctor func() EnvSimulator) error {
	return envsim.Register(name, func() envsim.Simulator { return ctor() })
}

// RegisterTechnique installs a custom fault-injection algorithm — the
// paper's §2.1 extension path. checkLocation constrains the location domains
// the technique can reach; nil accepts everything.
func RegisterTechnique(name string, algo core.Algorithm, checkLocation func(Location) error) error {
	core.RegisterBuiltins()
	return core.RegisterTechnique(name, algo, checkLocation)
}

// Algorithm is the signature of a fault-injection technique: one experiment
// over the abstract target operations.
type Algorithm = core.Algorithm

// LocationStats aggregates a campaign's outcomes per fault location.
type LocationStats = analysis.LocationStats

// LocationBreakdown groups classified experiments by the state element their
// injection hit; Analyze must have run first.
func LocationBreakdown(db *Database, campaign string, ops TargetOperations) ([]LocationStats, error) {
	return analysis.LocationBreakdown(db, campaign, ops)
}

// FormatLocationTable renders a location breakdown as an aligned table
// showing the top n locations (n <= 0 shows all).
func FormatLocationTable(stats []LocationStats, n int) string {
	return analysis.FormatLocationTable(stats, n)
}

// NewSimpleTarget builds the bundled second target system: a 16-bit
// accumulator machine with no scan chains, adapted to GOOFI by overriding
// only the memory-port subset of the Framework operations (§2.2). It
// supports pre-runtime SWIFI campaigns on its built-in checksum workload.
func NewSimpleTarget() *target.SimpleTarget { return target.NewSimpleTarget() }

// SimpleChecksumWorkload returns the workload the simple target runs.
func SimpleChecksumWorkload() Workload { return target.SimpleChecksumWorkload() }

// Termination reasons (see TerminationSpec and Termination).
const (
	TerminWorkloadEnd = target.TerminWorkloadEnd
	TerminDetected    = target.TerminDetected
	TerminTimeout     = target.TerminTimeout
	TerminIterations  = target.TerminIterations
)

// Engine-synthesised termination reasons of the fault-tolerance layer.
const (
	// TermHang marks an experiment the wall-clock watchdog gave up on.
	TermHang = core.TermHang
	// TermFailed marks an experiment lost to transient target faults after
	// the retry budget was exhausted.
	TermFailed = core.TermFailed
)

// ErrStopped is returned by campaign execution ended through Stop or context
// cancellation; the campaign resumes from its logged experiments on re-run.
var ErrStopped = core.ErrStopped

// ErrTransient classifies retryable target faults; wrap errors with
// TransientError to make a custom target's glitches retryable.
var ErrTransient = target.ErrTransient

// TransientError marks err as a transient, retryable target fault.
func TransientError(err error) error { return target.Transient(err) }

// IsTransientError reports whether err is a transient target fault.
func IsTransientError(err error) bool { return target.IsTransient(err) }

// Chaos testing: the Flaky wrapper injects seeded transient faults into any
// target's scan/memory surface, exercising the campaign engine's retry,
// quarantine and watchdog machinery.
type (
	// FlakyConfig configures injected error/panic/hang rates.
	FlakyConfig = target.FlakyConfig
	// FlakyTarget wraps a target with seeded chaos injection.
	FlakyTarget = target.Flaky
	// FlakyCounts reports how many faults a FlakyTarget injected.
	FlakyCounts = target.FlakyCounts
)

// NewFlakyTarget wraps ops with seeded chaos injection.
func NewFlakyTarget(ops TargetOperations, cfg FlakyConfig) *FlakyTarget {
	return target.NewFlaky(ops, cfg)
}

// FlakyTargetFactory wraps every target a factory mints with chaos injection.
func FlakyTargetFactory(inner TargetFactory, cfg FlakyConfig) TargetFactory {
	return target.FlakyFactory(inner, cfg)
}

// ParseFlakyConfig parses a chaos spec like
// "err=0.02,panic=0.005,hang=0.01,seed=3,hangdur=5s".
func ParseFlakyConfig(spec string) (FlakyConfig, error) {
	return target.ParseFlakyConfig(spec)
}

// Observability: a nil-safe Recorder collects per-phase timings, counters
// and latency histograms across the engine, target and database layers, and
// can emit Chrome trace_event JSON. Wire one recorder through all three:
//
//	rec := goofi.NewRecorder(goofi.RecorderOptions{Trace: true})
//	db.SetRecorder(rec)
//	ops := goofi.NewMeasuredTarget(goofi.NewThorTarget(), rec)
//	r := goofi.NewRunner(ops, db, campaign)
//	r.Recorder = rec
//	...
//	rec.WriteMetrics(metricsFile)
//	rec.WriteTrace(traceFile)
type (
	// Recorder is the observability hub; nil disables everything at zero
	// cost.
	Recorder = obsv.Recorder
	// RecorderOptions configures tracing on a new recorder.
	RecorderOptions = obsv.Options
	// MetricsSnapshot is the machine-readable dump WriteMetrics produces and
	// `goofi stats` consumes.
	MetricsSnapshot = obsv.Snapshot
	// MeasuredTarget wraps any target and times every operation into the
	// recorder's phase taxonomy.
	MeasuredTarget = target.Measured
)

// NewRecorder builds an observability recorder.
func NewRecorder(o RecorderOptions) *Recorder { return obsv.New(o) }

// NewMeasuredTarget wraps ops so every target operation is timed into rec.
func NewMeasuredTarget(ops TargetOperations, rec *Recorder) *MeasuredTarget {
	return target.NewMeasured(ops, rec)
}

// MeasuredTargetFactory wraps every target a factory mints with timing —
// pair it with Runner.Factory for instrumented parallel campaigns.
func MeasuredTargetFactory(inner TargetFactory, rec *Recorder) TargetFactory {
	return target.MeasuredFactory(inner, rec)
}

// ParseMetrics reads a WriteMetrics JSON dump back in.
func ParseMetrics(r io.Reader) (MetricsSnapshot, error) { return obsv.ParseSnapshot(r) }

// Live campaign monitoring: assign a Broadcaster to Runner.Events and every
// MonitorInterval the runner publishes one CampaignEvent frame (progress,
// rate, ETA, fault-tolerance counters), plus a final frame matching the
// returned Summary. The CLI serves the stream at /campaign/events on the
// -debug-addr server and renders it with `goofi watch`.
type (
	// CampaignEvent is one frame of the live monitoring stream.
	CampaignEvent = obsv.CampaignEvent
	// Broadcaster fans campaign events out to subscribers; nil is disabled.
	Broadcaster = obsv.Broadcaster
)

// NewBroadcaster builds an event broadcaster for Runner.Events.
func NewBroadcaster() *Broadcaster { return obsv.NewBroadcaster() }

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (served at /metrics by the CLI's -debug-addr server).
func WritePrometheus(w io.Writer, s MetricsSnapshot) error { return obsv.WritePrometheus(w, s) }

// MetricsDiff compares two metrics snapshots — counter/gauge deltas and
// histogram quantile shifts (`goofi stats -diff`).
type MetricsDiff = obsv.SnapshotDiff

// DiffMetrics compares snapshot a (the "before") with b (the "after").
func DiffMetrics(a, b MetricsSnapshot) MetricsDiff { return obsv.DiffSnapshots(a, b) }

// Provenance tracing: a recorder built with RecorderOptions{Journal: true}
// collects causal wide events — campaign run → shard → experiment → attempt —
// from every engine layer (plan draws, fault injections, retries, hangs,
// chaos faults, checkpoint restores, WAL commit batches, storage faults,
// service HTTP requests) into a bounded in-memory ring. Drain the ring into
// the campaign database with Database.PutTraceJournal; read it back causally
// ordered with Database.TraceEvents. `goofi trace CAMPAIGN [EXPERIMENT]` and
// the service's /trace endpoint render the result.
type (
	// WideEvent is one provenance event. Sub-experiment events (WAL commits,
	// storage faults) carry no experiment name; AttributeTraceEvents assigns
	// them to the attempt in flight at render time.
	WideEvent = obsv.WideEvent
	// TraceJournal is the bounded drop-counting ring the recorder journals
	// wide events into; nil is disabled at zero cost.
	TraceJournal = obsv.Journal
)

// SortTraceEvents orders events causally: by wall-clock time, then by the
// journal sequence that broke the tie at emission.
func SortTraceEvents(events []WideEvent) { obsv.SortEvents(events) }

// AttributeTraceEvents assigns experiment-less events (WAL commits, storage
// faults) to the experiment attempt whose window covers them, returning a
// causally sorted copy.
func AttributeTraceEvents(events []WideEvent) []WideEvent {
	return obsv.AttributeEvents(events)
}

// FormatTraceSummary renders a per-experiment rollup of a campaign's wide
// events.
func FormatTraceSummary(w io.Writer, events []WideEvent) {
	obsv.FormatTraceSummary(w, events)
}

// FormatTraceTimeline renders one experiment's causal chain — plan, attempts,
// injections, chaos faults, retries, row durability and the WAL commit
// batches that made its rows durable.
func FormatTraceTimeline(w io.Writer, events []WideEvent, experiment string) error {
	return obsv.FormatTimeline(w, events, experiment)
}

// WriteChromeTraceEvents renders wide events as a Chrome trace_event file
// (load in chrome://tracing or Perfetto): one process lane per shard, one
// thread lane per worker plus reserved lanes for WAL, storage and HTTP.
func WriteChromeTraceEvents(w io.Writer, events []WideEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(obsv.ChromeTrace(events))
}

// Persisted run metrics: with a Recorder attached, every campaign run also
// writes a time series of engine metrics (progress counters, per-phase
// durations, store latencies) into the CampaignRunMetrics table — interval
// rows plus one final row per run.
type RunMetricsRow = dbase.RunMetricsRow

// RunMetrics returns a campaign's stored engine-metrics series in (run,
// sequence) order.
func RunMetrics(db *Database, campaign string) ([]RunMetricsRow, error) {
	return db.RunMetrics(campaign)
}

// FinalRunMetrics returns the closing totals row of each of a campaign's
// runs in run order.
func FinalRunMetrics(db *Database, campaign string) ([]RunMetricsRow, error) {
	return db.FinalRunMetrics(campaign)
}

// Cross-campaign reporting (`goofi report`): analysis outcomes, per-EDM
// coverage with Wilson intervals, location breakdowns and run metrics of
// several campaigns side by side, rendered as text, CSV or HTML.
type (
	// CrossReport compares completed campaigns side by side.
	CrossReport = analysis.CrossReport
	// CrossReportSection is one campaign's slice of a CrossReport.
	CrossReportSection = analysis.CampaignSection
	// MechanismCoverage is one EDM's coverage with its Wilson interval.
	MechanismCoverage = analysis.MechanismCoverage
	// CoverageInterval is a binomial-proportion confidence interval.
	CoverageInterval = analysis.Interval
)

// CrossCampaignReport joins AnalysisResult, LoggedSystemState and
// CampaignRunMetrics into a comparison of the named campaigns. Each campaign
// must have been analysed (Analyze) first. ops, when non-nil, resolves
// injection locations for the per-location breakdown; nil skips it.
func CrossCampaignReport(db *Database, campaigns []string, ops TargetOperations) (CrossReport, error) {
	return analysis.Cross(db, campaigns, ops)
}

// WilsonInterval computes the Wilson score interval for k successes out of n
// trials at normal quantile z (1.96 for 95%).
func WilsonInterval(k, n int, z float64) CoverageInterval { return analysis.Wilson(k, n, z) }

// Campaign as a service: a multi-tenant daemon (`goofi serve`) that accepts
// campaign submissions over a JSON/HTTP API, queues them behind a bounded
// scheduler, executes each against its tenant's own WAL-backed database —
// at any width, with rows bit-identical to a single-process run — and
// survives SIGTERM by checkpointing in-flight campaigns and persisting the
// queue for resume.
type (
	// CampaignService is the daemon; mount its Handler on an HTTP server
	// and shut it down with Drain.
	CampaignService = service.Server
	// ServiceOptions configures a CampaignService.
	ServiceOptions = service.Options
	// CampaignSpec is one submission — the POST /campaigns body.
	CampaignSpec = service.Spec
	// CampaignStatus is a campaign's service status document.
	CampaignStatus = service.Status
)

// NewCampaignService starts a campaign daemon over its data directory,
// resuming any campaigns a previous drain persisted.
func NewCampaignService(opts ServiceOptions) (*CampaignService, error) { return service.New(opts) }

// Service submission failure sentinels; the HTTP layer maps them onto 429,
// 503, 409 and 404.
var (
	ErrServiceQueueFull = service.ErrQueueFull
	ErrServiceDraining  = service.ErrDraining
	ErrServiceExists    = service.ErrExists
	ErrServiceNotFound  = service.ErrNotFound
)

// WritePrometheusMulti renders several campaigns' metrics snapshots — keyed
// by campaign id — as one Prometheus exposition with a campaign label per
// series (the service's multiplexed /metrics endpoint).
func WritePrometheusMulti(w io.Writer, snaps map[string]MetricsSnapshot) error {
	return obsv.WritePrometheusMulti(w, snaps)
}
