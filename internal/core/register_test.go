package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/target"
)

type fieldSpan struct {
	name     string
	firstBit int
	width    int
}

// chainFields is the former registration path, kept as a test-only
// reference: it reconstructs the chain's field layout from per-bit names
// ("chain/field[i]"), grouping consecutive bits of the same field.
func chainFields(ops target.Operations, ci target.ChainInfo) ([]fieldSpan, error) {
	var (
		out  []fieldSpan
		cur  string
		span fieldSpan
	)
	flush := func() {
		if cur != "" {
			out = append(out, span)
		}
	}
	for bit := 0; bit < ci.Bits; bit++ {
		name, err := ops.BitName(ci.Name, bit)
		if err != nil {
			return nil, fmt.Errorf("core: chain %s bit %d: %w", ci.Name, bit, err)
		}
		rest := strings.TrimPrefix(name, ci.Name+"/")
		open := strings.LastIndexByte(rest, '[')
		if open < 0 {
			return nil, fmt.Errorf("core: malformed bit name %q", name)
		}
		field := rest[:open]
		if field != cur {
			flush()
			cur = field
			span = fieldSpan{name: field, firstBit: bit, width: 1}
			continue
		}
		span.width++
	}
	flush()
	return out, nil
}

// TestChainFieldsMatchBitNames checks the target-reported field layout
// against the one reconstructed from bit names, chain by chain, and that it
// tiles every chain in order.
func TestChainFieldsMatchBitNames(t *testing.T) {
	ops := target.NewDefaultThorTarget()
	if err := ops.InitTestCard(); err != nil {
		t.Fatal(err)
	}
	chains := ops.Chains()
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	for _, ci := range chains {
		ref, err := chainFields(ops, ci)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]fieldSpan, len(ci.Fields))
		next := 0
		for i, f := range ci.Fields {
			got[i] = fieldSpan{name: f.Name, firstBit: f.FirstBit, width: f.Width}
			if f.FirstBit != next || f.Width < 1 {
				t.Errorf("%s/%s: span [%d,+%d) does not continue at bit %d", ci.Name, f.Name, f.FirstBit, f.Width, next)
			}
			next = f.FirstBit + f.Width
		}
		if next != ci.Bits {
			t.Errorf("%s: fields end at bit %d, chain has %d", ci.Name, next, ci.Bits)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: fields differ from the bit-name layout\n got %v\nwant %v", ci.Name, got, ref)
		}
	}
}

// TestRegisterTargetMatchesBitNameCatalogue checks that registration writes
// exactly the FaultLocation rows the bit-name reconstruction yields.
func TestRegisterTargetMatchesBitNameCatalogue(t *testing.T) {
	ops, store := newEnv(t)
	got, err := store.FaultLocations(ops.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]dbase.LocationRow{}
	for _, ci := range ops.Chains() {
		fields, err := chainFields(ops, ci)
		if err != nil {
			t.Fatal(err)
		}
		writable := map[int]bool{}
		for _, b := range ci.Writable {
			writable[b] = true
		}
		for _, f := range fields {
			name := ci.Name + "/" + f.name
			want[name] = dbase.LocationRow{
				TestCardName: ops.Name(),
				LocationName: name,
				ChainName:    ci.Name,
				FirstBit:     f.firstBit,
				Width:        f.width,
				Writable:     writable[f.firstBit],
			}
		}
	}
	if len(got) != 546 || len(want) != 546 {
		t.Fatalf("registered %d locations, reference %d, want 546", len(got), len(want))
	}
	for _, l := range got {
		if w, ok := want[l.LocationName]; !ok || l != w {
			t.Errorf("location %s = %+v, want %+v", l.LocationName, l, w)
		}
	}
}
