package core

import (
	"fmt"

	"goofi/internal/faultmodel"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/trigger"
)

// This file holds the fault-injection algorithms of the paper's
// FaultInjectionAlgorithms class (Fig. 2), composed from the abstract
// operations of target.Operations. Each algorithm executes ONE experiment;
// the Runner loops them over the campaign.

// prepare performs the common opening sequence of every algorithm:
// initTestCard → loadWorkload → writeMemory (initial input data) →
// runWorkload.
func prepare(ops target.Operations, c Campaign) error {
	if err := ops.InitTestCard(); err != nil {
		return err
	}
	if err := ops.LoadWorkload(c.Workload); err != nil {
		return err
	}
	// Download initial input data: the input exchange words start at zero.
	for _, addr := range c.Workload.InputAddrs {
		if err := ops.WriteMemory(addr, []uint32{0}); err != nil {
			return err
		}
	}
	return ops.RunWorkload()
}

// finish performs the common closing sequence: waitForTermination →
// readMemory → readScanChain, bundling the logged state.
func finish(ops target.Operations, c Campaign, plan faultmodel.Plan, injected int) (Experiment, error) {
	term, err := ops.WaitForTermination(target.TerminationSpec{
		MaxCycles:     c.Workload.MaxCycles,
		MaxIterations: c.Workload.MaxIterations,
	})
	if err != nil {
		return Experiment{}, err
	}
	state, err := captureState(ops, c.Workload.ResultAddrs, ops.TraceLog())
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{Plan: plan, Injected: injected, Term: term, State: state}, nil
}

// injectScan applies scan-domain injections: readScanChain → flip/force →
// writeScanChain, grouped per chain so simultaneous multi-bit faults in one
// chain need a single shift sequence.
func injectScan(ops target.Operations, injs []faultmodel.Injection) error {
	emitInject(ops, "scan", injs)
	byChain := map[string][]faultmodel.Injection{}
	var order []string
	for _, inj := range injs {
		if _, seen := byChain[inj.Loc.Chain]; !seen {
			order = append(order, inj.Loc.Chain)
		}
		byChain[inj.Loc.Chain] = append(byChain[inj.Loc.Chain], inj)
	}
	for _, chain := range order {
		bits, err := ops.ReadScanChain(chain)
		if err != nil {
			return err
		}
		for _, inj := range byChain[chain] {
			if inj.Loc.Bit < 0 || inj.Loc.Bit >= bits.Len() {
				return fmt.Errorf("core: injection bit %d out of range for chain %s", inj.Loc.Bit, chain)
			}
			nv, err := inj.Op.Apply(bits.Get(inj.Loc.Bit))
			if err != nil {
				return err
			}
			bits.Set(inj.Loc.Bit, nv)
		}
		if err := ops.WriteScanChain(chain, bits); err != nil {
			return err
		}
	}
	return nil
}

// emitInject records the performed injection as a provenance wide event,
// attributed to the attempt in flight via the context the runner stamped
// onto the target stack. Disabled journals cost one branch.
func emitInject(ops target.Operations, domain string, injs []faultmodel.Injection) {
	if tc := target.TraceContextOf(ops); tc.Enabled() {
		tc.Emit(obsv.EvInject, fmt.Sprintf("domain=%s injections=%d", domain, len(injs)))
	}
}

// injectMemory applies memory-domain injections through the test-card port.
func injectMemory(ops target.Operations, injs []faultmodel.Injection) error {
	emitInject(ops, "memory", injs)
	for _, inj := range injs {
		vals, err := ops.ReadMemory(inj.Loc.Addr, 1)
		if err != nil {
			return err
		}
		word := vals[0]
		bit := word&(1<<uint(inj.Loc.MemBit)) != 0
		nv, err := inj.Op.Apply(bit)
		if err != nil {
			return err
		}
		if nv {
			word |= 1 << uint(inj.Loc.MemBit)
		} else {
			word &^= 1 << uint(inj.Loc.MemBit)
		}
		if err := ops.WriteMemory(inj.Loc.Addr, []uint32{word}); err != nil {
			return err
		}
	}
	return nil
}

// faultInjectorSCIFI is the paper's faultInjectorSCIFI (Fig. 2): breakpoints
// programmed via the scan chains halt the workload at each injection time;
// the faults are injected by reading the chain contents, inverting the
// chosen bits and writing them back; then execution resumes until a
// termination condition.
func faultInjectorSCIFI(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	if err := prepare(ops, c); err != nil {
		return Experiment{}, err
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
			// The injection time lies beyond the workload's execution; the
			// remaining injections never happen.
			break
		}
		injs := plan.At(t)
		if err := injectScan(ops, injs); err != nil {
			return Experiment{}, err
		}
		injected += len(injs)
	}
	return finish(ops, c, plan, injected)
}

// faultInjectorSWIFIPre is pre-runtime software-implemented fault injection
// (§1): the program and data areas are corrupted through the test-card
// memory port before the workload starts.
func faultInjectorSWIFIPre(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	if err := ops.InitTestCard(); err != nil {
		return Experiment{}, err
	}
	if err := ops.LoadWorkload(c.Workload); err != nil {
		return Experiment{}, err
	}
	for _, addr := range c.Workload.InputAddrs {
		if err := ops.WriteMemory(addr, []uint32{0}); err != nil {
			return Experiment{}, err
		}
	}
	if err := injectMemory(ops, plan.Injections); err != nil {
		return Experiment{}, err
	}
	if err := ops.RunWorkload(); err != nil {
		return Experiment{}, err
	}
	return finish(ops, c, plan, len(plan.Injections))
}

// faultInjectorSWIFIRuntime is runtime SWIFI (§4 extension): the workload is
// halted at the injection time like SCIFI, but the fault is written into
// memory through the software-visible path rather than the scan chains.
func faultInjectorSWIFIRuntime(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	if err := prepare(ops, c); err != nil {
		return Experiment{}, err
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
		if err := injectMemory(ops, injs); err != nil {
			return Experiment{}, err
		}
		injected += len(injs)
	}
	return finish(ops, c, plan, injected)
}

// faultInjectorTriggered injects scan-chain faults when an event trigger
// fires (§4 extension: data access, branch, call, task switch, clock). The
// plan's sampled times are ignored; the trigger decides the injection point.
func faultInjectorTriggered(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	waiter, ok := ops.(target.TriggerWaiter)
	if !ok {
		return Experiment{}, fmt.Errorf("core: target %s cannot wait for triggers", ops.Name())
	}
	trig, err := trigger.Parse(c.TriggerSpec)
	if err != nil {
		return Experiment{}, err
	}
	trig.Reset()
	if err := prepare(ops, c); err != nil {
		return Experiment{}, err
	}
	injected := 0
	if len(plan.Injections) > 0 {
		fired, err := waiter.WaitForTrigger(trig, c.Workload.MaxCycles)
		if err != nil {
			return Experiment{}, err
		}
		if fired {
			if err := injectScan(ops, plan.Injections); err != nil {
				return Experiment{}, err
			}
			injected = len(plan.Injections)
		}
	}
	return finish(ops, c, plan, injected)
}

// faultInjectorSCIFICheckpoint is SCIFI with checkpoint amortisation: the
// first run of a campaign executes the workload from reset to the start of
// the injection window and snapshots the complete target state; every later
// experiment restores the snapshot instead of re-running the prefix. The
// optimisation is behaviour-preserving because the simulator, environment
// and debug logic are all part of the snapshot.
func faultInjectorSCIFICheckpoint(ops target.Operations, c Campaign, plan faultmodel.Plan) (Experiment, error) {
	cp, ok := ops.(target.Checkpointer)
	if !ok {
		return Experiment{}, fmt.Errorf("core: target %s cannot checkpoint", ops.Name())
	}
	restored, err := cp.RestoreCheckpoint()
	if err != nil {
		return Experiment{}, err
	}
	if !restored {
		if err := prepare(ops, c); err != nil {
			return Experiment{}, err
		}
		// Run the common prefix once and snapshot at the injection window's
		// start. If the workload ends earlier, the snapshot holds the final
		// state and injections (all at t >= InjectMinTime) never happen —
		// the same outcome plain SCIFI produces.
		if c.InjectMinTime > 0 {
			if err := ops.SetBreakpoint(c.InjectMinTime); err != nil {
				return Experiment{}, err
			}
			if _, err := ops.WaitForBreakpoint(c.Workload.MaxCycles); err != nil {
				return Experiment{}, err
			}
		}
		if err := cp.SaveCheckpoint(); err != nil {
			return Experiment{}, err
		}
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
		if err := injectScan(ops, injs); err != nil {
			return Experiment{}, err
		}
		injected += len(injs)
	}
	return finish(ops, c, plan, injected)
}
