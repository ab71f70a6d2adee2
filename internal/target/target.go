// Package target defines GOOFI's target abstraction layer: the generic
// operations a fault-injection algorithm needs from a test card (paper §2.2,
// Fig. 3). Algorithms in internal/core speak only this interface; porting
// GOOFI to a new system means implementing it (or embedding BaseTarget and
// overriding the operations the system supports).
//
// Two targets ship with the reproduction: ThorTarget, the JTAG-equipped
// Thor-RD simulator the paper's campaigns run on, and SimpleTarget, the
// minimal accumulator machine of the porting guide.
package target

import (
	"errors"

	"goofi/internal/scan"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// ErrNotImplemented is returned by BaseTarget for every operation a concrete
// target has not overridden — the Framework default of §2.2.
var ErrNotImplemented = errors.New("target: operation not implemented")

// Reason classifies how an experiment's workload execution ended.
type Reason int

// Termination reasons (§2.3: the terminationReason column).
const (
	// TerminWorkloadEnd: the workload ran to completion (HALT).
	TerminWorkloadEnd Reason = iota + 1
	// TerminDetected: an error-detection mechanism fired.
	TerminDetected
	// TerminTimeout: the cycle budget was exhausted.
	TerminTimeout
	// TerminIterations: the iteration budget was reached (control workloads
	// that never halt on their own).
	TerminIterations
)

// String renders the reason as stored in the database.
func (r Reason) String() string {
	switch r {
	case TerminWorkloadEnd:
		return "workload-end"
	case TerminDetected:
		return "detected"
	case TerminTimeout:
		return "timeout"
	case TerminIterations:
		return "iterations"
	default:
		return "unknown"
	}
}

// TerminationSpec bounds a WaitForTermination call.
type TerminationSpec struct {
	// MaxCycles bounds the execution in instructions; 0 means unbounded.
	MaxCycles uint64
	// MaxIterations bounds the execution in workload iterations (SYNC
	// points); 0 means unbounded.
	MaxIterations uint64
}

// Termination describes how and when a workload execution ended.
type Termination struct {
	Reason Reason
	// Mechanism names the error-detection mechanism for TerminDetected.
	Mechanism string
	// Cycles and Iterations are the execution counters at termination.
	Cycles     uint64
	Iterations uint64
}

// ChainInfo describes one scan chain of the target.
type ChainInfo struct {
	Name string
	// Bits is the chain length.
	Bits int
	// Writable lists the bit positions a host write can change.
	Writable []int
	// Fields lays the chain out as named state elements in chain order;
	// together they tile [0, Bits). These are the fault-location catalogue
	// entries (§3.1).
	Fields []FieldSpan
}

// FieldSpan is one named state element of a scan chain, e.g. "R3" at bits
// [FirstBit, FirstBit+Width).
type FieldSpan struct {
	Name     string
	FirstBit int
	Width    int
}

// TraceEntry is one detail-mode log record: the core state after one
// executed instruction (§3.3, "logging the system state after each executed
// instruction").
type TraceEntry struct {
	Cycle  uint64
	PC     uint32
	Disasm string
	// Core is the captured core scan-chain image.
	Core scan.Bits
}

// Operations is the set of generic operations the fault-injection algorithms
// are written against (Fig. 3). The experiment life-cycle is: InitTestCard,
// LoadWorkload, optional memory setup, RunWorkload (arms the workload
// without executing instructions), then SetBreakpoint/WaitForBreakpoint and
// scan-chain access to inject, and WaitForTermination to finish.
type Operations interface {
	// Name identifies the target system (the testCardName column).
	Name() string

	// InitTestCard powers up and fully resets the target.
	InitTestCard() error
	// LoadWorkload assembles and loads the workload image and prepares its
	// environment simulator.
	LoadWorkload(w workload.Spec) error
	// RunWorkload arms the loaded workload at its entry point. It must not
	// execute any instructions: execution is driven exclusively by
	// WaitForBreakpoint and WaitForTermination, so pre-run faults injected
	// after RunWorkload are in place before the first instruction.
	RunWorkload() error

	// WriteMemory and ReadMemory access test-card memory words through the
	// host port (byte addresses, word-aligned).
	WriteMemory(addr uint32, vals []uint32) error
	ReadMemory(addr uint32, n int) ([]uint32, error)

	// SetBreakpoint arms a cycle breakpoint at the given execution time.
	SetBreakpoint(cycle uint64) error
	// WaitForBreakpoint runs the workload until the breakpoint fires,
	// reporting false when the workload ends or the budget is exhausted
	// first.
	WaitForBreakpoint(maxCycles uint64) (bool, error)

	// ReadScanChain and WriteScanChain access internal state through the
	// target's scan chains — the only path to registers, caches and pins.
	ReadScanChain(chain string) (scan.Bits, error)
	WriteScanChain(chain string, bits scan.Bits) error

	// WaitForTermination runs the workload to its end and classifies it.
	WaitForTermination(spec TerminationSpec) (Termination, error)

	// Chains inventories the target's scan chains. The slice may be shared
	// between calls; callers must treat it as read-only.
	Chains() []ChainInfo
	// BitName names one chain bit ("chain/field[i]") for the fault-location
	// catalogue.
	BitName(chain string, bit int) (string, error)
	// MemLayout reports the memory and ROM sizes in bytes.
	MemLayout() (memSize, romSize uint32)

	// SetDetailMode toggles per-instruction state logging (§3.3).
	SetDetailMode(on bool)
	// TraceLog returns the detail-mode trace of the last execution.
	TraceLog() []TraceEntry
	// EnvLog returns the environment simulator's recorded outputs as one
	// flat log: vals holds every word in iteration order and ends[i] is
	// len(vals) after iteration i, so iterations may differ in width. Both
	// are read-only views of the target's own log, valid until the target
	// runs again; both are nil without a simulator.
	EnvLog() (vals, ends []uint32)
}

// Checkpointer is the optional capability behind the scifi-checkpoint
// technique: saving the post-prefix system state once and restoring it for
// every subsequent experiment.
type Checkpointer interface {
	// SaveCheckpoint snapshots the complete system state.
	SaveCheckpoint() error
	// RestoreCheckpoint restores the snapshot, reporting false when none was
	// saved.
	RestoreCheckpoint() (bool, error)
	// ClearCheckpoint discards any saved snapshot.
	ClearCheckpoint()
}

// CheckpointStore generalises Checkpointer to many snapshots addressed by
// caller-chosen ids — the capability behind the core engine's golden-run
// checkpoint forking. The forking engine uses reference-run cycle counts as
// ids: it snapshots along the golden run, then starts each experiment from
// the nearest checkpoint at or before its first injection time.
//
// Exported snapshots are opaque immutable values. They may be imported into
// any sibling instance minted from the same Factory (same configuration);
// this is how the parallel runner distributes the coordinator's golden-run
// checkpoints to its worker pool. Implementations are expected to share
// large state (the golden memory image) between snapshots, so CheckpointBytes
// reports owned bytes — the quantity a memory budget meaningfully bounds.
type CheckpointStore interface {
	// SaveCheckpointAt snapshots the complete system state under id,
	// replacing any snapshot previously saved under it.
	SaveCheckpointAt(id uint64) error
	// RestoreCheckpointAt restores the snapshot saved under id, reporting
	// false when the store holds none.
	RestoreCheckpointAt(id uint64) (bool, error)
	// DropCheckpointAt discards the snapshot saved under id, if any.
	DropCheckpointAt(id uint64)
	// DropCheckpoints discards every snapshot in the store.
	DropCheckpoints()
	// CheckpointBytes estimates the store's owned memory footprint.
	CheckpointBytes() int64
	// ExportCheckpoint returns the snapshot saved under id as an opaque
	// immutable value, or false when the store holds none.
	ExportCheckpoint(id uint64) (snap any, ok bool)
	// ImportCheckpoint installs a previously exported snapshot under id.
	// Shape validation happens at restore time, so instances may import
	// before they are initialised.
	ImportCheckpoint(id uint64, snap any) error
}

// AsCheckpointStore probes ops for a usable CheckpointStore. Wrapper layers
// (Measured, Flaky) forward the capability optimistically — they answer for
// themselves and surface ErrNotImplemented only at call time — so this
// helper unwraps to the innermost target and requires the capability to be
// real there, while returning the outermost store so instrumentation and
// chaos stay in the call path.
func AsCheckpointStore(ops Operations) (CheckpointStore, bool) {
	outer, ok := ops.(CheckpointStore)
	if !ok {
		return nil, false
	}
	inner := ops
	for {
		u, ok := inner.(interface{ Unwrap() Operations })
		if !ok {
			break
		}
		inner = u.Unwrap()
	}
	if _, ok := inner.(CheckpointStore); !ok {
		return nil, false
	}
	return outer, true
}

// TriggerWaiter is the optional capability behind the scifi-triggered
// technique: running until an event trigger fires.
type TriggerWaiter interface {
	// WaitForTrigger runs the workload until the trigger fires, reporting
	// false when the workload ends or the budget is exhausted first.
	WaitForTrigger(trig trigger.Trigger, maxCycles uint64) (bool, error)
}

// ExperimentSeeder is the optional capability of targets whose behaviour
// draws on pseudo-randomness (the Flaky chaos wrapper): the campaign runner
// reseeds before every experiment attempt, so nondeterministic-looking
// behaviour is actually a pure function of (campaign seed, experiment index,
// attempt index) — independent of worker scheduling — and campaigns over such
// targets stay bit-reproducible.
type ExperimentSeeder interface {
	// SeedExperiment reseeds the target's PRNG for one experiment attempt.
	// The reference run is seeded with experiment index -1.
	SeedExperiment(campaignSeed int64, experiment, attempt int)
}

// Factory mints independent target instances. Parallel campaign execution
// (core.Runner with Campaign.Workers > 1) gives every worker its own
// instance, so experiments share no simulator state.
type Factory interface {
	New() (Operations, error)
}

// FactoryFunc adapts a constructor function to the Factory interface.
type FactoryFunc func() (Operations, error)

// New calls f.
func (f FactoryFunc) New() (Operations, error) { return f() }
