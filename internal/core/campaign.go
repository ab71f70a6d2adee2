package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/target"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// Technique names supported by the engine (§1 and §2.1: SCIFI, pre-runtime
// SWIFI, plus the extensions: runtime SWIFI, pin-level injection and
// event-triggered SCIFI).
const (
	TechSCIFI           = "scifi"
	TechSWIFIPre        = "swifi-pre"
	TechSWIFIRuntime    = "swifi-runtime"
	TechPinLevel        = "pin-level"
	TechSCIFITriggered  = "scifi-triggered"
	TechSCIFICheckpoint = "scifi-checkpoint"
)

// Campaign is the in-memory form of a CampaignData row with the workload
// resolved.
type Campaign struct {
	Name           string
	Workload       workload.Spec
	Technique      string
	Model          faultmodel.Model
	LocationFilter faultmodel.Filter
	// TriggerSpec selects the event trigger for TechSCIFITriggered.
	TriggerSpec string
	// NExperiments is the number of faults to inject (paper Fig. 6).
	NExperiments int
	// Seed makes the campaign reproducible.
	Seed int64
	// InjectMinTime and InjectMaxTime bound the sampled injection times in
	// executed instructions.
	InjectMinTime uint64
	InjectMaxTime uint64
	// DetailMode logs the system state after every instruction (§3.3).
	DetailMode bool
	Notes      string
	// Workers selects parallel campaign execution: with Workers > 1 and a
	// Runner.Factory set, experiments fan out to that many workers, each on
	// its own target instance. 0 or 1 runs sequentially. Workers is an
	// execution-engine knob, not part of the campaign definition, and is not
	// persisted in the CampaignData row — the logged result of a campaign is
	// identical at any worker count.
	Workers int
	// RetryLimit bounds how often one experiment is retried after a transient
	// target fault (target.IsTransient) before it is recorded as failed. The
	// target is fully re-initialised between attempts. Retries never consume
	// the campaign's seeded plan stream: a retried experiment reuses its
	// already-drawn plan, so a flaky campaign logs the same plans as a clean
	// one. Like Workers, an engine knob that is not persisted.
	RetryLimit int
	// RetryBackoff is the base delay between retry attempts, doubling per
	// attempt (exponential backoff). 0 retries immediately.
	RetryBackoff time.Duration
	// ExperimentTimeout is the wall-clock watchdog per experiment attempt: an
	// attempt still running after this long is recorded as a "hang"
	// termination and the campaign moves on with a replacement target instead
	// of wedging. 0 disables the watchdog, which Validate only allows when
	// the workload's cycle budget bounds execution. Engine knob, not
	// persisted.
	ExperimentTimeout time.Duration
	// Fork enables golden-run checkpoint forking: the reference run snapshots
	// the system at a grid of cycles plus every distinct first-injection time
	// of the pre-drawn plans, and each experiment restores the nearest
	// checkpoint at or before its first injection instead of re-executing the
	// fault-free prefix. The logged rows and state vectors are bit-identical
	// to a non-forking run of the same seed — plans are still drawn in
	// experiment order from the single PRNG stream, only execution is
	// reordered. Requires a target.CheckpointStore; engine knob, not
	// persisted.
	Fork bool
	// CheckpointEvery is the reference-run checkpoint grid spacing in cycles.
	// 0 picks an automatic grid of roughly InjectMaxTime/16. Engine knob.
	CheckpointEvery uint64
	// CheckpointMem bounds the checkpoint memory footprint in bytes — for the
	// reference-run harvest and for each worker's imported pool alike. When
	// the harvest overflows, the checkpoint closest to its predecessor is
	// dropped (the cycle-0 snapshot is always kept); workers evict least
	// recently used imports. 0 means 64 MiB. Engine knob.
	CheckpointMem int64
}

// Row converts the campaign to its CampaignData representation.
func (c Campaign) Row(targetName string) dbase.CampaignRow {
	return dbase.CampaignRow{
		CampaignName:   c.Name,
		TestCardName:   targetName,
		Workload:       c.Workload.Name,
		Technique:      c.Technique,
		FaultModel:     c.Model.String(),
		LocationFilter: string(c.LocationFilter),
		TriggerSpec:    c.TriggerSpec,
		NExperiments:   c.NExperiments,
		Seed:           c.Seed,
		InjectMinTime:  c.InjectMinTime,
		InjectMaxTime:  c.InjectMaxTime,
		MaxCycles:      c.Workload.MaxCycles,
		MaxIterations:  c.Workload.MaxIterations,
		DetailMode:     c.DetailMode,
		EnvSimulator:   c.Workload.Env,
		Notes:          c.Notes,
	}
}

// CampaignFromRow rebuilds a campaign from its stored row, resolving the
// workload by name.
func CampaignFromRow(r dbase.CampaignRow) (Campaign, error) {
	w, err := workload.Get(r.Workload)
	if err != nil {
		return Campaign{}, fmt.Errorf("core: campaign %s: %w", r.CampaignName, err)
	}
	m, err := faultmodel.ParseModel(r.FaultModel)
	if err != nil {
		return Campaign{}, fmt.Errorf("core: campaign %s: %w", r.CampaignName, err)
	}
	return Campaign{
		Name:           r.CampaignName,
		Workload:       w,
		Technique:      r.Technique,
		Model:          m,
		LocationFilter: faultmodel.Filter(r.LocationFilter),
		TriggerSpec:    r.TriggerSpec,
		NExperiments:   r.NExperiments,
		Seed:           r.Seed,
		InjectMinTime:  r.InjectMinTime,
		InjectMaxTime:  r.InjectMaxTime,
		DetailMode:     r.DetailMode,
		Notes:          r.Notes,
	}, nil
}

// Validate checks the campaign against the target it will run on: the
// technique must exist, the fault model must be sound, and every candidate
// location must live in a domain the technique can reach.
func (c Campaign) Validate(ops target.Operations) error {
	if c.Name == "" {
		return errors.New("core: campaign needs a name")
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("core: campaign %s: %w", c.Name, err)
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("core: campaign %s: %w", c.Name, err)
	}
	if c.NExperiments <= 0 {
		return fmt.Errorf("core: campaign %s: NExperiments must be positive", c.Name)
	}
	if c.InjectMaxTime < c.InjectMinTime {
		return fmt.Errorf("core: campaign %s: injection window [%d,%d] invalid",
			c.Name, c.InjectMinTime, c.InjectMaxTime)
	}
	if c.RetryLimit < 0 || c.RetryBackoff < 0 || c.ExperimentTimeout < 0 {
		return fmt.Errorf("core: campaign %s: negative retry/timeout configuration", c.Name)
	}
	// No configuration may hang unbounded: an unbounded cycle budget
	// (Workload.MaxCycles == 0) needs the wall-clock watchdog as a backstop.
	if c.Workload.MaxCycles == 0 && c.ExperimentTimeout <= 0 {
		return fmt.Errorf("core: campaign %s: workload %s has no cycle budget (MaxCycles=0); set Campaign.ExperimentTimeout so experiments cannot hang unbounded",
			c.Name, c.Workload.Name)
	}
	tech, err := techniqueFor(c.Technique)
	if err != nil {
		return fmt.Errorf("core: campaign %s: %w", c.Name, err)
	}
	locs, err := c.LocationFilter.Resolve(ops)
	if err != nil {
		return fmt.Errorf("core: campaign %s: %w", c.Name, err)
	}
	for _, l := range locs {
		if err := tech.checkLocation(l); err != nil {
			return fmt.Errorf("core: campaign %s: %w", c.Name, err)
		}
	}
	if c.Technique == TechSCIFICheckpoint {
		if _, ok := ops.(target.Checkpointer); !ok {
			return fmt.Errorf("core: campaign %s: target %s cannot checkpoint", c.Name, ops.Name())
		}
		if c.DetailMode {
			return fmt.Errorf("core: campaign %s: detail mode records per-instruction traces from reset and cannot be combined with checkpointing", c.Name)
		}
	}
	if c.Fork {
		switch c.Technique {
		case TechSCIFI, TechPinLevel, TechSWIFIRuntime, TechSWIFIPre:
		default:
			return fmt.Errorf("core: campaign %s: checkpoint forking does not support technique %s (its injection points are not plan times)",
				c.Name, c.Technique)
		}
		if _, ok := target.AsCheckpointStore(ops); !ok {
			return fmt.Errorf("core: campaign %s: checkpoint forking needs a target with a checkpoint store; %s has none",
				c.Name, ops.Name())
		}
		if c.DetailMode {
			return fmt.Errorf("core: campaign %s: detail mode records per-instruction traces from reset and cannot be combined with checkpoint forking", c.Name)
		}
		if c.CheckpointMem < 0 {
			return fmt.Errorf("core: campaign %s: negative checkpoint memory budget", c.Name)
		}
	}
	if c.Technique == TechSCIFITriggered {
		if c.TriggerSpec == "" {
			return fmt.Errorf("core: campaign %s: technique %s needs a trigger", c.Name, c.Technique)
		}
		if _, err := trigger.Parse(c.TriggerSpec); err != nil {
			return fmt.Errorf("core: campaign %s: %w", c.Name, err)
		}
		if _, ok := ops.(target.TriggerWaiter); !ok {
			return fmt.Errorf("core: campaign %s: target %s cannot wait for triggers",
				c.Name, ops.Name())
		}
	}
	return nil
}

// Experiment is the outcome of one fault-injection experiment.
type Experiment struct {
	Plan faultmodel.Plan
	// Injected counts the injections actually applied; injections whose
	// breakpoint fell beyond the workload's execution never happen.
	Injected int
	Term     target.Termination
	// State is the logged state vector in its wire encoding
	// (StateVector.Encode; DecodeStateVector reads it back) and becomes the
	// row's LoggedSystemState.stateVector as is. Nil logs the empty vector.
	State []byte
}

// Data renders the experimentData column content.
func (e Experiment) Data() string {
	return fmt.Sprintf("plan=[%s] injected=%d/%d", e.Plan, e.Injected, len(e.Plan.Injections))
}

// technique bundles an algorithm with its location-domain constraint.
type technique struct {
	name          string
	run           Algorithm
	checkLocation func(faultmodel.Location) error
}

// Algorithm executes one experiment of a technique over the abstract target
// operations — one of the faultInjector* methods of Fig. 2.
type Algorithm func(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error)

var (
	techMu     sync.RWMutex
	techniques = map[string]technique{}
)

// RegisterTechnique installs a new fault-injection technique — the paper's
// §2.1 extension path ("adding a new fault injection technique to GOOFI").
// The checkLocation hook constrains which location domains the technique can
// reach; nil accepts everything.
func RegisterTechnique(name string, algo Algorithm, checkLocation func(faultmodel.Location) error) error {
	if name == "" || algo == nil {
		return errors.New("core: technique needs a name and an algorithm")
	}
	techMu.Lock()
	defer techMu.Unlock()
	if _, dup := techniques[name]; dup {
		return fmt.Errorf("core: technique %q already registered", name)
	}
	if checkLocation == nil {
		checkLocation = func(faultmodel.Location) error { return nil }
	}
	techniques[name] = technique{name: name, run: algo, checkLocation: checkLocation}
	return nil
}

// Techniques lists the registered technique names, sorted.
func Techniques() []string {
	techMu.RLock()
	defer techMu.RUnlock()
	out := make([]string, 0, len(techniques))
	for n := range techniques {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func techniqueFor(name string) (technique, error) {
	RegisterBuiltins() // the shipped techniques are always resolvable
	techMu.RLock()
	defer techMu.RUnlock()
	t, ok := techniques[name]
	if !ok {
		return technique{}, fmt.Errorf("core: unknown technique %q (have %v)", name, Techniques())
	}
	return t, nil
}

func scanOnly(l faultmodel.Location) error {
	if l.Domain != faultmodel.DomainScan {
		return fmt.Errorf("core: SCIFI can only inject into scan chains, got %s", l)
	}
	return nil
}

func memOnly(l faultmodel.Location) error {
	if l.Domain != faultmodel.DomainMemory {
		return fmt.Errorf("core: SWIFI can only inject into memory, got %s", l)
	}
	return nil
}

func pinsOnly(l faultmodel.Location) error {
	if l.Domain != faultmodel.DomainScan || l.Chain != "boundary.pins" {
		return fmt.Errorf("core: pin-level injection is restricted to boundary.pins, got %s", l)
	}
	return nil
}

// registerBuiltinTechniques installs the shipped algorithms; guarded so both
// the facade and tests can call it.
var registerOnce sync.Once

// RegisterBuiltins installs the built-in techniques. Safe to call multiple
// times.
func RegisterBuiltins() {
	registerOnce.Do(func() {
		mustRegister(TechSCIFI, faultInjectorSCIFI, scanOnly)
		mustRegister(TechSWIFIPre, faultInjectorSWIFIPre, memOnly)
		mustRegister(TechSWIFIRuntime, faultInjectorSWIFIRuntime, memOnly)
		mustRegister(TechPinLevel, faultInjectorSCIFI, pinsOnly)
		mustRegister(TechSCIFITriggered, faultInjectorTriggered, scanOnly)
		mustRegister(TechSCIFICheckpoint, faultInjectorSCIFICheckpoint, scanOnly)
	})
}

func mustRegister(name string, algo Algorithm, check func(faultmodel.Location) error) {
	if err := RegisterTechnique(name, algo, check); err != nil {
		// Registration of the built-ins cannot collide; reaching this is a
		// programming error caught immediately by every test.
		panic(err)
	}
}
