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

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/envsim"
	"goofi/internal/faultmodel"
	"goofi/internal/preinject"
	"goofi/internal/target"
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
	// Algorithm is the signature of a fault-injection technique: one
	// experiment over the abstract target operations.
	Algorithm = core.Algorithm
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
)

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

// RefSuffix names the reference-run experiment row of a campaign.
const RefSuffix = core.RefSuffix

// TerminWorkloadEnd is the termination reason of a workload that ran to its
// end (see TerminationSpec and Termination).
const TerminWorkloadEnd = target.TerminWorkloadEnd

// NewThorTarget builds the simulated Thor-RD target system with its default
// configuration (64 KiB memory, parity-protected caches, scan chains).
func NewThorTarget() *ThorTarget { return target.NewDefaultThorTarget() }

// ThorTargetFactory mints independent default-configured Thor targets — set
// it as Runner.Factory to run campaigns with Campaign.Workers parallel
// workers.
func ThorTargetFactory() TargetFactory { return target.DefaultThorFactory() }

// NewSimpleTarget builds the bundled second target system: a 16-bit
// accumulator machine with no scan chains, adapted to GOOFI by overriding
// only the memory-port subset of the Framework operations (§2.2). It
// supports pre-runtime SWIFI campaigns on its built-in checksum workload.
func NewSimpleTarget() *target.SimpleTarget { return target.NewSimpleTarget() }

// SimpleChecksumWorkload returns the workload the simple target runs.
func SimpleChecksumWorkload() Workload { return target.SimpleChecksumWorkload() }

// OpenDatabase opens (or creates) a file-backed campaign database.
func OpenDatabase(path string) (*Database, error) { return dbase.OpenStore(path) }

// NewMemoryDatabase creates an in-memory campaign database.
func NewMemoryDatabase() (*Database, error) { return dbase.NewMemoryStore() }

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

// Analyze classifies every experiment of a campaign against its reference
// run, stores the AnalysisResult rows and returns the report (§3.4).
func Analyze(db *Database, campaign string) (Report, error) {
	return analysis.Classify(db, campaign)
}

// MustWorkload fetches a bundled workload and panics on unknown names; use
// it for program initialisation with constant names.
func MustWorkload(name string) Workload {
	w, err := workload.Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

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

// RegisterEnvSimulator installs a custom environment simulator constructor
// under a name that Workload.Env can reference (paper Fig. 1: the
// environment simulator is user-provided).
func RegisterEnvSimulator(name string, ctor func() EnvSimulator) error {
	return envsim.Register(name, ctor)
}

// RegisterTechnique installs a custom fault-injection algorithm — the
// paper's §2.1 extension path. checkLocation constrains the location domains
// the technique can reach; nil accepts everything.
func RegisterTechnique(name string, algo Algorithm, checkLocation func(Location) error) error {
	return core.RegisterTechnique(name, algo, checkLocation)
}
