package faultmodel

import (
	"fmt"
	"testing"

	"goofi/internal/target"
	"goofi/internal/thor"
)

func newOps(t *testing.T) target.Operations {
	t.Helper()
	tt := target.NewDefaultThorTarget()
	if err := tt.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestFilterWholeChain(t *testing.T) {
	ops := newOps(t)
	locs, err := Filter("chain:" + thor.ChainCore).Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	// Core chain: 16 regs + PC + PSW + IR/MAR/MDR, all writable.
	want := 16*32 + 32 + 8 + 3*32
	if len(locs) != want {
		t.Fatalf("locations = %d, want %d", len(locs), want)
	}
	for _, l := range locs {
		if l.Domain != DomainScan || l.Chain != thor.ChainCore {
			t.Fatalf("bad location %v", l)
		}
	}
}

func TestFilterChainField(t *testing.T) {
	ops := newOps(t)
	locs, err := Filter("chain:" + thor.ChainCore + "/R3").Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 32 {
		t.Fatalf("R3 bits = %d", len(locs))
	}
	name, err := ops.BitName(thor.ChainCore, locs[0].Bit)
	if err != nil || name != "internal.core/R3[0]" {
		t.Fatalf("first bit = %q, %v", name, err)
	}

	// R1 is a name prefix of R10–R15; the field must select only itself.
	locs, err = Filter("chain:" + thor.ChainCore + "/R1").Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 32 {
		t.Fatalf("R1 bits = %d, want 32", len(locs))
	}
	for i, l := range locs {
		name, err := ops.BitName(thor.ChainCore, l.Bit)
		if want := fmt.Sprintf("internal.core/R1[%d]", i); err != nil || name != want {
			t.Fatalf("R1 bit %d = %q, %v; want %q", i, name, err, want)
		}
	}
}

func TestFilterExcludesReadOnly(t *testing.T) {
	ops := newOps(t)
	locs, err := Filter("chain:" + thor.ChainDebug).Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	// Writable debug bits: bp_addr(32) + en(1) + bp_cycle(64) + en(1) + hit(1).
	if len(locs) != 32+1+64+1+1 {
		t.Fatalf("debug writable bits = %d", len(locs))
	}
}

func TestFilterMemoryRange(t *testing.T) {
	ops := newOps(t)
	locs, err := Filter("mem:0x4000-0x4010").Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4*32 {
		t.Fatalf("locations = %d", len(locs))
	}
	if locs[0].Addr != 0x4000 || locs[len(locs)-1].Addr != 0x400C {
		t.Fatalf("range = %v .. %v", locs[0], locs[len(locs)-1])
	}
}

func TestFilterCombination(t *testing.T) {
	ops := newOps(t)
	locs, err := Filter("chain:internal.core/PSW, mem:0x4000-0x4004").Resolve(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 8+32 {
		t.Fatalf("locations = %d", len(locs))
	}
}

func TestFilterErrors(t *testing.T) {
	ops := newOps(t)
	bad := []string{
		"", "zz:1", "chain:nope", "chain:internal.core/NOPE",
		"mem:0x4000", "mem:0x4001-0x4009", "mem:0x5000-0x4000",
		"mem:0x4000-0x40000000", "mem:xx-0x4000", "mem:0x4000-yy",
	}
	for _, f := range bad {
		if _, err := Filter(f).Resolve(ops); err == nil {
			t.Errorf("filter %q should fail", f)
		}
	}
}
