package target

import (
	"errors"
	"fmt"

	"goofi/internal/asm"
	"goofi/internal/envsim"
	"goofi/internal/scan"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// errNotInitialised flags operations invoked before InitTestCard.
var errNotInitialised = errors.New("target: test card not initialised")

// ThorTarget implements Operations on the Thor-RD simulator: workloads are
// assembled to Thor machine code, internal state is reached exclusively
// through the JTAG TAP's scan chains, and environment simulators are coupled
// to the workload at its SYNC points.
type ThorTarget struct {
	// BaseTarget supplies SeedExperiment: the simulator is deterministic.
	BaseTarget

	cfg  thor.Config
	sys  *thor.System
	tap  *scan.TAP
	core *scan.Chain
	// chains is the scan-chain inventory, built once with the TAP: state
	// capture asks for it on every experiment.
	chains []ChainInfo

	w      workload.Spec
	loaded bool
	// prog caches the assembled image; campaigns reload the same workload
	// for every experiment.
	prog    *asm.Program
	progSrc string

	env *envsim.Recorder

	detail bool
	trace  []TraceEntry

	// cpstore is the CheckpointStore: snapshots keyed by caller id. The
	// first snapshot saved (goldenCP) keeps a full memory image; later saves
	// store page deltas against it, so a forking campaign's checkpoint grid
	// costs one image plus the divergent pages. cpBytes tracks the owned
	// footprint for the engine's memory budget.
	cpstore  map[uint64]*thorSnapshot
	goldenCP *thor.Checkpoint
	cpBytes  int64
}

// thorSnapshot is one stored snapshot: the CPU checkpoint plus the debug
// registers, TAP controller stage and environment-simulator state it does
// not cover. Snapshots are immutable once taken and may be shared between
// sibling ThorTarget instances via Export/ImportCheckpoint.
type thorSnapshot struct {
	cpu    *thor.Checkpoint
	debug  thor.Debug
	tap    scan.TAPSnapshot
	env    any
	hasEnv bool
	bytes  int64
}

// NewThorTarget builds a Thor target with the given simulator configuration.
// The simulator itself is constructed lazily by InitTestCard, so an invalid
// configuration surfaces as an InitTestCard error.
func NewThorTarget(cfg thor.Config) *ThorTarget { return &ThorTarget{cfg: cfg} }

// NewDefaultThorTarget builds a Thor target with the default configuration.
func NewDefaultThorTarget() *ThorTarget { return NewThorTarget(thor.DefaultConfig()) }

// Name identifies the Thor-RD test card.
func (t *ThorTarget) Name() string { return "thor-rd" }

// System exposes the underlying simulator for instrumentation (the
// pre-injection analysis attaches its own trace hook). Nil before
// InitTestCard.
func (t *ThorTarget) System() *thor.System { return t.sys }

// InitTestCard powers up the simulator: full CPU reset, memory cleared,
// debug registers and TAP reset, hooks and traces dropped.
func (t *ThorTarget) InitTestCard() error {
	if t.sys == nil {
		sys, err := thor.NewSystem(t.cfg)
		if err != nil {
			return fmt.Errorf("target: %w", err)
		}
		tap, err := thor.BuildTAP(sys)
		if err != nil {
			return fmt.Errorf("target: %w", err)
		}
		core, err := tap.ChainByName(thor.ChainCore)
		if err != nil {
			return fmt.Errorf("target: %w", err)
		}
		t.sys, t.tap, t.core = sys, tap, core
		t.chains = chainInventory(tap)
	}
	t.sys.CPU.Reset()
	t.sys.CPU.ClearMemory()
	t.sys.CPU.SetSyncHook(nil)
	t.sys.CPU.SetTraceHook(nil)
	*t.sys.Debug = thor.Debug{}
	t.tap.Reset()
	t.trace = nil
	t.loaded = false
	t.env = nil
	return nil
}

// LoadWorkload assembles the workload (cached across experiments), writes
// its segments through the host port and instantiates its environment
// simulator.
func (t *ThorTarget) LoadWorkload(w workload.Spec) error {
	if t.sys == nil {
		return errNotInitialised
	}
	if t.prog == nil || t.progSrc != w.Source {
		prog, err := asm.Assemble(w.Source)
		if err != nil {
			return fmt.Errorf("target: workload %s: %w", w.Name, err)
		}
		t.prog, t.progSrc = prog, w.Source
	}
	cpu := t.sys.CPU
	cpu.ClearMemory()
	for _, seg := range t.prog.Segments {
		addr := seg.Addr
		for _, word := range seg.Words {
			if err := cpu.WriteWordHost(addr, word); err != nil {
				return fmt.Errorf("target: workload %s: %w", w.Name, err)
			}
			addr += 4
		}
	}
	t.w = w
	t.env = nil
	if w.Env != "" {
		sim, err := envsim.New(w.Env)
		if err != nil {
			return fmt.Errorf("target: workload %s: %w", w.Name, err)
		}
		t.env = envsim.NewRecorder(sim)
	}
	t.loaded = true
	return nil
}

// RunWorkload arms the loaded workload: CPU reset (memory is preserved, so
// pre-arranged inputs and pre-runtime faults stay in place), environment
// reset, hooks installed. No instruction executes here — execution is driven
// by WaitForBreakpoint/WaitForTermination so that faults injected between
// RunWorkload and the first wait land before the first instruction.
func (t *ThorTarget) RunWorkload() error {
	if t.sys == nil {
		return errNotInitialised
	}
	if !t.loaded {
		return errors.New("target: no workload loaded")
	}
	cpu := t.sys.CPU
	cpu.Reset()
	*t.sys.Debug = thor.Debug{}
	t.trace = nil
	if t.env != nil {
		t.env.Reset()
		cpu.SetSyncHook(t.exchangeEnv)
	} else {
		cpu.SetSyncHook(nil)
	}
	if t.detail {
		cpu.SetTraceHook(t.recordTrace)
	} else {
		cpu.SetTraceHook(nil)
	}
	return nil
}

// exchangeEnv is the SYNC hook coupling workload and environment: sampled
// outputs go into the simulator, its reply lands at the input addresses
// before the next iteration reads them.
func (t *ThorTarget) exchangeEnv(cpu *thor.CPU) {
	outs := make([]uint32, len(t.w.OutputAddrs))
	for i, addr := range t.w.OutputAddrs {
		v, err := cpu.ReadWordHost(addr)
		if err != nil {
			continue
		}
		outs[i] = v
	}
	ins := t.env.Step(outs)
	for i, addr := range t.w.InputAddrs {
		if i >= len(ins) {
			break
		}
		// The workload owns its address map; errors here would mean a
		// mis-declared spec already rejected by Validate.
		_ = cpu.WriteWordHost(addr, ins[i])
	}
}

// recordTrace is the detail-mode trace hook: core chain image after every
// executed instruction.
func (t *ThorTarget) recordTrace(rec thor.TraceRecord) {
	t.trace = append(t.trace, TraceEntry{
		Cycle:  rec.Cycle,
		PC:     rec.PC,
		Disasm: rec.Instr.String(),
		Core:   t.core.Capture(),
	})
}

// WriteMemory writes words through the host port.
func (t *ThorTarget) WriteMemory(addr uint32, vals []uint32) error {
	if t.sys == nil {
		return errNotInitialised
	}
	for i, v := range vals {
		if err := t.sys.CPU.WriteWordHost(addr+uint32(4*i), v); err != nil {
			return fmt.Errorf("target: %w", err)
		}
	}
	return nil
}

// ReadMemory reads words through the host port.
func (t *ThorTarget) ReadMemory(addr uint32, n int) ([]uint32, error) {
	if t.sys == nil {
		return nil, errNotInitialised
	}
	out := make([]uint32, n)
	for i := range out {
		v, err := t.sys.CPU.ReadWordHost(addr + uint32(4*i))
		if err != nil {
			return nil, fmt.Errorf("target: %w", err)
		}
		out[i] = v
	}
	return out, nil
}

// SetBreakpoint arms a cycle breakpoint through the debug unit.
func (t *ThorTarget) SetBreakpoint(cycle uint64) error {
	if t.sys == nil {
		return errNotInitialised
	}
	t.sys.Debug.BPCycle = cycle
	t.sys.Debug.BPCycleEnable = true
	t.sys.Debug.Hit = false
	return nil
}

// WaitForBreakpoint steps the workload until the armed breakpoint fires
// (checked before each instruction, like the hardware debug unit). On a hit
// the debug registers are cleared — the host acknowledges the breakpoint
// before injecting, so the registers carry no per-experiment residue into
// the captured state. False is returned when the workload ends, the cycle
// budget is exhausted, or the workload's own iteration bound is reached
// first (an injection time beyond the execution never fires).
func (t *ThorTarget) WaitForBreakpoint(maxCycles uint64) (bool, error) {
	if t.sys == nil {
		return false, errNotInitialised
	}
	cpu, d := t.sys.CPU, t.sys.Debug
	for {
		if cpu.Status() != thor.StatusRunning {
			return false, nil
		}
		if (d.BPCycleEnable && cpu.Cycles() >= d.BPCycle) ||
			(d.BPAddrEnable && cpu.PC == d.BPAddr) {
			*d = thor.Debug{}
			return true, nil
		}
		if maxCycles > 0 && cpu.Cycles() >= maxCycles {
			return false, nil
		}
		if t.w.MaxIterations > 0 && cpu.Iterations() >= t.w.MaxIterations {
			return false, nil
		}
		cpu.Step()
	}
}

// WaitForTermination disarms the debug unit and runs the workload to its
// end, classifying the outcome. Budgets are checked before each instruction,
// so a MaxIterations bound terminates exactly at the iteration count (the
// environment history then holds exactly MaxIterations snapshots).
func (t *ThorTarget) WaitForTermination(spec TerminationSpec) (Termination, error) {
	if t.sys == nil {
		return Termination{}, errNotInitialised
	}
	cpu := t.sys.CPU
	*t.sys.Debug = thor.Debug{}
	for cpu.Status() == thor.StatusRunning {
		if spec.MaxIterations > 0 && cpu.Iterations() >= spec.MaxIterations {
			return t.termination(TerminIterations, ""), nil
		}
		if spec.MaxCycles > 0 && cpu.Cycles() >= spec.MaxCycles {
			return t.termination(TerminTimeout, ""), nil
		}
		cpu.Step()
	}
	switch cpu.Status() {
	case thor.StatusDetected:
		mech := ""
		if det := cpu.Detection(); det != nil {
			mech = det.Mechanism
		}
		return t.termination(TerminDetected, mech), nil
	default:
		return t.termination(TerminWorkloadEnd, ""), nil
	}
}

func (t *ThorTarget) termination(reason Reason, mech string) Termination {
	return Termination{
		Reason:     reason,
		Mechanism:  mech,
		Cycles:     t.sys.CPU.Cycles(),
		Iterations: t.sys.CPU.Iterations(),
	}
}

// ReadScanChain shifts a chain image out through the TAP.
func (t *ThorTarget) ReadScanChain(chain string) (scan.Bits, error) {
	if t.tap == nil {
		return scan.Bits{}, errNotInitialised
	}
	if err := t.tap.SelectChain(chain); err != nil {
		return scan.Bits{}, err
	}
	return t.tap.ReadChain()
}

// WriteScanChain shifts a chain image in through the TAP.
func (t *ThorTarget) WriteScanChain(chain string, bits scan.Bits) error {
	if t.tap == nil {
		return errNotInitialised
	}
	if err := t.tap.SelectChain(chain); err != nil {
		return err
	}
	_, err := t.tap.WriteChain(bits)
	return err
}

// Chains inventories the TAP's scan chains in IR-code order; nil before
// InitTestCard.
func (t *ThorTarget) Chains() []ChainInfo { return t.chains }

// chainInventory describes every chain of the TAP, field layout included.
func chainInventory(tap *scan.TAP) []ChainInfo {
	chains := tap.Chains()
	out := make([]ChainInfo, 0, len(chains))
	for _, ch := range chains {
		ci := ChainInfo{Name: ch.Name(), Bits: ch.Length(), Writable: ch.WritableBits()}
		bit := 0
		for _, f := range ch.Fields() {
			ci.Fields = append(ci.Fields, FieldSpan{Name: f.Name, FirstBit: bit, Width: f.Width})
			bit += f.Width
		}
		out = append(out, ci)
	}
	return out
}

// BitName names a chain bit for the fault-location catalogue.
func (t *ThorTarget) BitName(chain string, bit int) (string, error) {
	if t.tap == nil {
		return "", errNotInitialised
	}
	ch, err := t.tap.ChainByName(chain)
	if err != nil {
		return "", err
	}
	if bit < 0 || bit >= ch.Length() {
		return "", fmt.Errorf("target: chain %s has no bit %d", chain, bit)
	}
	return ch.BitName(bit), nil
}

// MemLayout reports the configured memory and ROM sizes.
func (t *ThorTarget) MemLayout() (uint32, uint32) { return t.cfg.MemSize, t.cfg.ROMSize }

// SetDetailMode toggles per-instruction tracing. The hook itself is
// (re)installed by RunWorkload, so toggling between experiments is cheap.
func (t *ThorTarget) SetDetailMode(on bool) {
	t.detail = on
	if !on {
		t.trace = nil
		if t.sys != nil {
			t.sys.CPU.SetTraceHook(nil)
		}
	}
}

// TraceLog returns the detail-mode trace of the last execution.
func (t *ThorTarget) TraceLog() []TraceEntry { return t.trace }

// EnvLog returns views of the environment simulator's recorded outputs.
func (t *ThorTarget) EnvLog() (vals, ends []uint32) {
	if t.env == nil {
		return nil, nil
	}
	return t.env.Log()
}

// SaveCheckpointAt snapshots the complete system state — CPU (registers,
// memory, caches), debug registers, TAP controller stage and environment
// simulator — under id (CheckpointStore). The first snapshot taken carries a
// full memory image; subsequent ones delta against it.
func (t *ThorTarget) SaveCheckpointAt(id uint64) error {
	if t.sys == nil {
		return errNotInitialised
	}
	var cpu *thor.Checkpoint
	if t.goldenCP == nil {
		cpu = t.sys.CPU.Checkpoint()
		t.goldenCP = cpu
	} else {
		var err error
		if cpu, err = t.sys.CPU.CheckpointDelta(t.goldenCP); err != nil {
			return fmt.Errorf("target: save checkpoint %d: %w", id, err)
		}
	}
	snap := &thorSnapshot{cpu: cpu, debug: *t.sys.Debug, tap: t.tap.Snapshot()}
	if t.env != nil {
		snap.env = t.env.SaveState()
		snap.hasEnv = true
	}
	snap.bytes = cpu.Bytes()
	t.putSnapshot(id, snap)
	return nil
}

// putSnapshot installs a snapshot under id, keeping the byte accounting.
func (t *ThorTarget) putSnapshot(id uint64, snap *thorSnapshot) {
	if t.cpstore == nil {
		t.cpstore = make(map[uint64]*thorSnapshot)
	}
	if old, ok := t.cpstore[id]; ok {
		t.cpBytes -= old.bytes
	}
	t.cpstore[id] = snap
	t.cpBytes += snap.bytes
}

// RestoreCheckpointAt restores the snapshot saved under id in place (scan
// chains stay bound to the live state), reporting false when the store holds
// none (CheckpointStore). The snapshot itself stays valid for further
// restores, on this instance or any sibling it is exported to.
func (t *ThorTarget) RestoreCheckpointAt(id uint64) (bool, error) {
	snap, ok := t.cpstore[id]
	if !ok {
		return false, nil
	}
	if t.sys == nil {
		return false, errNotInitialised
	}
	if err := t.sys.CPU.Restore(snap.cpu); err != nil {
		return false, fmt.Errorf("target: restore checkpoint %d: %w", id, err)
	}
	*t.sys.Debug = snap.debug
	t.tap.RestoreSnapshot(snap.tap)
	if snap.hasEnv && t.env != nil {
		if err := t.env.RestoreState(snap.env); err != nil {
			return false, fmt.Errorf("target: restore checkpoint %d: %w", id, err)
		}
	}
	t.trace = nil
	return true, nil
}

// DropCheckpointAt discards the snapshot saved under id (CheckpointStore).
// When the store empties, the golden image is released so the next save
// starts a fresh full-image generation.
func (t *ThorTarget) DropCheckpointAt(id uint64) {
	snap, ok := t.cpstore[id]
	if !ok {
		return
	}
	t.cpBytes -= snap.bytes
	delete(t.cpstore, id)
	if len(t.cpstore) == 0 {
		t.goldenCP = nil
		t.cpBytes = 0
	}
}

// DropCheckpoints discards every snapshot (CheckpointStore).
func (t *ThorTarget) DropCheckpoints() {
	t.cpstore = nil
	t.goldenCP = nil
	t.cpBytes = 0
}

// CheckpointBytes estimates the store's owned footprint (CheckpointStore).
// Imported snapshots alias their exporter's golden image, so only divergent
// pages count for them.
func (t *ThorTarget) CheckpointBytes() int64 { return t.cpBytes }

// ExportCheckpoint hands out the snapshot saved under id as an opaque
// immutable value (CheckpointStore).
func (t *ThorTarget) ExportCheckpoint(id uint64) (any, bool) {
	snap, ok := t.cpstore[id]
	return snap, ok
}

// ImportCheckpoint installs a snapshot exported by a sibling instance
// (CheckpointStore). Shape compatibility with this instance's configuration
// is validated at restore time, so importing before InitTestCard is legal.
func (t *ThorTarget) ImportCheckpoint(id uint64, snap any) error {
	ts, ok := snap.(*thorSnapshot)
	if !ok || ts == nil {
		return fmt.Errorf("target: import checkpoint %d: not a thor snapshot (%T)", id, snap)
	}
	t.putSnapshot(id, ts)
	return nil
}

// WaitForTrigger steps the workload until the event trigger fires, bounded
// by the cycle budget and the workload's iteration bound.
func (t *ThorTarget) WaitForTrigger(trig trigger.Trigger, maxCycles uint64) (bool, error) {
	if t.sys == nil {
		return false, errNotInitialised
	}
	cpu := t.sys.CPU
	for {
		if cpu.Status() != thor.StatusRunning {
			return false, nil
		}
		if maxCycles > 0 && cpu.Cycles() >= maxCycles {
			return false, nil
		}
		if t.w.MaxIterations > 0 && cpu.Iterations() >= t.w.MaxIterations {
			return false, nil
		}
		cpu.Step()
		if trig.Fired(cpu.LastEvents(), cpu.Cycles()) {
			return true, nil
		}
	}
}

// ThorFactory mints independent Thor targets sharing one configuration —
// one simulator per parallel campaign worker.
func ThorFactory(cfg thor.Config) Factory {
	return FactoryFunc(func() (Operations, error) { return NewThorTarget(cfg), nil })
}

// DefaultThorFactory mints default-configured Thor targets.
func DefaultThorFactory() Factory { return ThorFactory(thor.DefaultConfig()) }
