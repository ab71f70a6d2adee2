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
// "internal.core/R3" with its first bit, width and writability.
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
	if err := store.PutTargetSystem(ts); err != nil {
		return err
	}
	var rows []dbase.LocationRow
	for _, ci := range ops.Chains() {
		writable := make(map[int]bool, len(ci.Writable))
		for _, b := range ci.Writable {
			writable[b] = true
		}
		for _, f := range ci.Fields {
			rows = append(rows, dbase.LocationRow{
				TestCardName: ops.Name(),
				LocationName: ci.Name + "/" + f.Name,
				ChainName:    ci.Name,
				FirstBit:     f.FirstBit,
				Width:        f.Width,
				Writable:     writable[f.FirstBit],
			})
		}
	}
	return store.PutFaultLocations(rows)
}
