package core

import (
	"fmt"

	"goofi/internal/dbase"
	"goofi/internal/target"
)

// RegisterTarget stores a target system's description and fault-location
// inventory in the database — the configuration phase of §3.1 (Fig. 5),
// where the names and positions of the possible fault-injection locations
// are entered into TargetSystemData.
//
// Locations are recorded per named state element (scan-chain field), e.g.
// "internal.core/R3" with its first bit, width and writability. The target
// row and its inventory are one store write (PutTargetSystem).
func RegisterTarget(store *dbase.Store, ops target.Operations, description string) error {
	if err := ops.InitTestCard(); err != nil {
		return fmt.Errorf("core: register target: %w", err)
	}
	mem, rom := ops.MemLayout()
	ts := dbase.TargetSystem{
		TestCardName: ops.Name(),
		Description:  description,
		MemSize:      mem,
		ROMSize:      rom,
	}
	chains := ops.Chains()
	nRows, maxBits := 0, 0
	for _, ci := range chains {
		nRows += len(ci.Fields)
		maxBits = max(maxBits, ci.Bits)
	}
	// One bit table serves every chain: a map per chain cost more than the
	// rows themselves.
	rows := make([]dbase.LocationRow, 0, nRows)
	writable := make([]bool, maxBits)
	isWritable := func(bit int) bool { return bit >= 0 && bit < len(writable) && writable[bit] }
	for _, ci := range chains {
		clear(writable)
		for _, b := range ci.Writable {
			if b >= 0 && b < len(writable) {
				writable[b] = true
			}
		}
		for _, f := range ci.Fields {
			rows = append(rows, dbase.LocationRow{
				TestCardName: ops.Name(),
				LocationName: ci.Name + "/" + f.Name,
				ChainName:    ci.Name,
				FirstBit:     f.FirstBit,
				Width:        f.Width,
				Writable:     isWritable(f.FirstBit),
			})
		}
	}
	return store.PutTargetSystem(ts, rows...)
}
