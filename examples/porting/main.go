// Porting demonstrates the paper's §2.2 story — "adapting GOOFI to new
// target systems" — twice:
//
//  1. it runs a campaign against the bundled *second* target system, a
//     16-bit accumulator machine that implements fifteen of the twenty-six
//     Framework operations: the eight pre-runtime SWIFI needs and the seven
//     of its checkpoint store; and
//
//  2. it defines a third, inline target right here in the example by
//     embedding goofi.BaseTarget (the Fig. 3 Framework template), showing
//     exactly how little code a new port needs.
//
//     go run ./examples/porting
package main

import (
	"context"
	"fmt"
	"log"

	"goofi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Part 1: the bundled second target.
	ops := goofi.NewSimpleTarget()
	db, err := goofi.NewMemoryDatabase()
	if err != nil {
		return err
	}
	if err := goofi.RegisterTarget(db, ops, "16-bit accumulator machine"); err != nil {
		return err
	}
	campaign := goofi.Campaign{
		Name:           "port-demo",
		Workload:       goofi.SimpleChecksumWorkload(),
		Technique:      goofi.TechSWIFIPre,
		Model:          goofi.Model{Kind: goofi.Transient},
		LocationFilter: "mem:0x800-0x840", // the checksum's input block
		NExperiments:   100,
		Seed:           3,
	}
	if _, err := goofi.RunCampaign(context.Background(), ops, db, campaign, nil); err != nil {
		return err
	}
	report, err := goofi.Analyze(db, "port-demo")
	if err != nil {
		return err
	}
	fmt.Println("campaign against the accumulator machine (no scan chains):")
	fmt.Print(report)

	// SCIFI cannot run here: the target leaves every scan operation on its
	// Framework default (ErrNotImplemented), so validation refuses it.
	scifi := campaign
	scifi.Name = "port-scifi"
	scifi.Technique = goofi.TechSCIFI
	scifi.LocationFilter = "chain:internal.core"
	if err := scifi.Validate(ops); err != nil {
		fmt.Printf("\nSCIFI against this target is rejected up front:\n  %v\n", err)
	}

	// Part 2: a third target in ~30 lines. toyTarget "runs" workloads by
	// noting how many memory faults were written into it — enough for the
	// engine's whole pre-runtime SWIFI flow to execute against it.
	toy := &toyTarget{}
	fmt.Println("\ninline toy target (BaseTarget embedding):")
	db2, err := goofi.NewMemoryDatabase()
	if err != nil {
		return err
	}
	if err := goofi.RegisterTarget(db2, toy, "toy"); err != nil {
		return err
	}
	c2 := campaign
	c2.Name = "toy-demo"
	c2.Workload = goofi.SimpleChecksumWorkload()
	c2.NExperiments = 10
	c2.LocationFilter = "mem:0x0-0x40"
	if _, err := goofi.RunCampaign(context.Background(), toy, db2, c2, nil); err != nil {
		return err
	}
	fmt.Printf("toy target executed %d workload runs and absorbed %d fault writes\n",
		toy.runs, toy.faultWrites)
	return nil
}

// toyTarget is the minimal possible port: memory is a plain map, every run
// "terminates" immediately, and everything else stays on the Framework
// defaults.
type toyTarget struct {
	goofi.BaseTarget
	mem         map[uint32]uint32
	runs        int
	faultWrites int
}

func (t *toyTarget) Name() string { return "toy" }

func (t *toyTarget) InitTestCard() error {
	t.mem = make(map[uint32]uint32)
	return nil
}

func (t *toyTarget) LoadWorkload(goofi.Workload) error { return nil }

func (t *toyTarget) WriteMemory(addr uint32, vals []uint32) error {
	for i, v := range vals {
		t.mem[addr+uint32(4*i)] = v
		t.faultWrites++
	}
	return nil
}

func (t *toyTarget) ReadMemory(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		out[i] = t.mem[addr+uint32(4*i)]
	}
	return out, nil
}

func (t *toyTarget) RunWorkload() error { t.runs++; return nil }

func (t *toyTarget) WaitForTermination(goofi.TerminationSpec) (goofi.Termination, error) {
	return goofi.Termination{Reason: goofi.TerminWorkloadEnd}, nil
}

func (t *toyTarget) MemLayout() (uint32, uint32) { return 1 << 16, 0 }
