package core

import (
	"errors"
	"path/filepath"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// TestRegisterTargetCrashSweep power-cuts a fresh WAL store at every
// filesystem op of its open plus RegisterTarget, then recovers it. The
// target row and its fault-location inventory are one store write: the
// recovered store holds neither or both, never a target whose inventory is
// partial — the service registers a target only when its row is missing, so
// nothing would repair such a store.
func TestRegisterTargetCrashSweep(t *testing.T) {
	ops := target.NewDefaultThorTarget()
	opts := sqldb.WALOptions{SyncEvery: 1}
	register := func(path string, fsys vfs.FS) error {
		s, err := dbase.OpenStoreWALFS(path, fsys, opts)
		if err != nil {
			return err
		}
		defer s.Close()
		return RegisterTarget(s, ops, "crash sweep")
	}
	calib, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := register(filepath.Join(t.TempDir(), "camp.db"), calib); err != nil {
		t.Fatal(err)
	}
	total := calib.Stats().Ops
	wantLocs := 0
	for _, ci := range ops.Chains() {
		wantLocs += len(ci.Fields)
	}

	sawNone, sawAll := false, false
	for k := int64(1); k <= total; k++ {
		path := filepath.Join(t.TempDir(), "camp.db")
		fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true, CrashAtOp: k})
		if err != nil {
			t.Fatal(err)
		}
		_ = register(path, fsys) // fails from op k on
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		fsys.ClearCrashPoint()
		s, err := dbase.OpenStoreFS(path, fsys)
		if err != nil {
			t.Fatalf("crash at op %d: recover: %v", k, err)
		}
		locs, err := s.FaultLocations(ops.Name())
		if err != nil {
			t.Fatalf("crash at op %d: %v", k, err)
		}
		_, err = s.GetTargetSystem(ops.Name())
		switch {
		case errors.Is(err, dbase.ErrNotFound) && len(locs) == 0:
			sawNone = true
		case err == nil && len(locs) == wantLocs:
			sawAll = true
		default:
			t.Fatalf("crash at op %d of %d: recovered target row err=%v with %d of %d locations",
				k, total, err, len(locs), wantLocs)
		}
	}
	if !sawNone || !sawAll {
		t.Fatalf("sweep over %d ops never recovered both outcomes (none %t, all %t)", total, sawNone, sawAll)
	}
}
