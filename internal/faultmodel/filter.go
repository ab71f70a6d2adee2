package faultmodel

import (
	"fmt"
	"strconv"
	"strings"

	"goofi/internal/target"
)

// Filter selects fault locations compactly so CampaignData can store the
// chosen location set as text (paper Fig. 6: the user picks locations from a
// hierarchical list). Grammar, comma separated:
//
//	chain:<name>            every writable bit of the chain
//	chain:<name>/<field>    every writable bit of one field, e.g.
//	                        chain:internal.core/R3
//	mem:<lo>-<hi>           every bit of the word-aligned address range
//	                        [lo, hi), e.g. mem:0x4000-0x4100
type Filter string

// Resolve expands the filter into concrete locations against a target.
func (f Filter) Resolve(ops target.Operations) ([]Location, error) {
	var out []Location
	items := strings.Split(string(f), ",")
	for _, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		switch {
		case strings.HasPrefix(item, "chain:"):
			locs, err := resolveChain(ops, strings.TrimPrefix(item, "chain:"))
			if err != nil {
				return nil, err
			}
			out = append(out, locs...)
		case strings.HasPrefix(item, "mem:"):
			locs, err := resolveMem(ops, strings.TrimPrefix(item, "mem:"))
			if err != nil {
				return nil, err
			}
			out = append(out, locs...)
		default:
			return nil, fmt.Errorf("faultmodel: malformed filter item %q", item)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultmodel: filter %q selects no locations", string(f))
	}
	return out, nil
}

func resolveChain(ops target.Operations, spec string) ([]Location, error) {
	chainName := spec
	fieldName := ""
	if slash := strings.IndexByte(spec, '/'); slash >= 0 {
		chainName = spec[:slash]
		fieldName = spec[slash+1:]
	}
	var info *target.ChainInfo
	for _, ci := range ops.Chains() {
		if ci.Name == chainName {
			c := ci
			info = &c
			break
		}
	}
	if info == nil {
		return nil, fmt.Errorf("faultmodel: target has no chain %q", chainName)
	}
	lo, hi := 0, info.Bits
	if fieldName != "" {
		lo, hi = 0, 0
		for _, f := range info.Fields {
			if f.Name == fieldName {
				lo, hi = f.FirstBit, f.FirstBit+f.Width
				break
			}
		}
	}
	var out []Location
	for _, bit := range info.Writable {
		if bit >= lo && bit < hi {
			out = append(out, Location{Domain: DomainScan, Chain: chainName, Bit: bit})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultmodel: chain filter %q matches nothing", spec)
	}
	return out, nil
}

func resolveMem(ops target.Operations, spec string) ([]Location, error) {
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return nil, fmt.Errorf("faultmodel: malformed memory range %q", spec)
	}
	lo, err := strconv.ParseUint(spec[:dash], 0, 32)
	if err != nil {
		return nil, fmt.Errorf("faultmodel: bad range start in %q", spec)
	}
	hi, err := strconv.ParseUint(spec[dash+1:], 0, 32)
	if err != nil {
		return nil, fmt.Errorf("faultmodel: bad range end in %q", spec)
	}
	memSize, _ := ops.MemLayout()
	if lo%4 != 0 || hi%4 != 0 || lo >= hi || hi > uint64(memSize) {
		return nil, fmt.Errorf("faultmodel: memory range %q invalid for %d-byte memory", spec, memSize)
	}
	out := make([]Location, 0, (hi-lo)/4*32)
	for addr := uint32(lo); addr < uint32(hi); addr += 4 {
		for bit := 0; bit < 32; bit++ {
			out = append(out, Location{Domain: DomainMemory, Addr: addr, MemBit: bit})
		}
	}
	return out, nil
}
