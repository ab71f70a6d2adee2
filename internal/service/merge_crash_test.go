package service

import (
	"fmt"
	"path/filepath"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// TestMergeCrashSweep power-cuts a tenant WAL store at every filesystem op
// of one end-of-campaign merge, then recovers it. The campaign row, the new
// experiment rows and their run-metrics row are one store write: the
// recovered store holds all of them or none.
func TestMergeCrashSweep(t *testing.T) {
	const campaign, nRows = "sweep", 5
	ops := target.NewDefaultThorTarget()
	// setup registers the target in a fresh tenant store and fills a scratch
	// store the way a run would; merge is then the only write left.
	setup := func(path string, fsys vfs.FS) (*dbase.Store, *dbase.Store, seedState) {
		t.Helper()
		tenant, err := dbase.OpenStoreWALFS(path, fsys, sqldb.WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ensureTarget(tenant, ops); err != nil {
			t.Fatal(err)
		}
		scratch, seeded, err := seedScratch(tenant, campaign, ops.Name())
		if err != nil {
			t.Fatal(err)
		}
		camp := dbase.CampaignRow{CampaignName: campaign, TestCardName: ops.Name(), Workload: "bubblesort",
			Technique: "scifi", FaultModel: "bitflip", LocationFilter: "chain:internal.core", NExperiments: nRows}
		if err := scratch.PutCampaign(camp); err != nil {
			t.Fatal(err)
		}
		rows := make([]dbase.ExperimentRow, nRows)
		for i := range rows {
			rows[i] = dbase.ExperimentRow{ExperimentName: fmt.Sprintf("%s/e%04d", campaign, i),
				CampaignName: campaign, TerminationReason: "workload-end", StateVector: []byte{byte(i), 1, 2}}
		}
		if err := scratch.PutExperiments(rows); err != nil {
			t.Fatal(err)
		}
		if err := scratch.PutRunMetrics([]dbase.RunMetricsRow{{CampaignName: campaign, RunID: 1, Final: true, Done: nRows, Total: nRows}}); err != nil {
			t.Fatal(err)
		}
		return tenant, scratch, seeded
	}

	calib, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true})
	if err != nil {
		t.Fatal(err)
	}
	tenant, scratch, seeded := setup(filepath.Join(t.TempDir(), "t.db"), calib)
	first := calib.Stats().Ops
	if err := seeded.merge(tenant, scratch); err != nil {
		t.Fatal(err)
	}
	last := calib.Stats().Ops
	scratch.Close()
	tenant.Close()

	sawNone, sawAll := false, false
	for k := first; k <= last; k++ {
		path := filepath.Join(t.TempDir(), "t.db")
		fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true, CrashAtOp: k})
		if err != nil {
			t.Fatal(err)
		}
		tenant, scratch, seeded := setup(path, fsys)
		_ = seeded.merge(tenant, scratch) // fails from op k on
		scratch.Close()
		tenant.Close()
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		fsys.ClearCrashPoint()
		s, err := dbase.OpenStoreFS(path, fsys)
		if err != nil {
			t.Fatalf("crash at op %d: recover: %v", k, err)
		}
		rows, err := s.Experiments(campaign)
		if err != nil {
			t.Fatalf("crash at op %d: %v", k, err)
		}
		runs, err := s.RunMetrics(campaign)
		if err != nil {
			t.Fatalf("crash at op %d: %v", k, err)
		}
		_, cerr := s.GetCampaign(campaign)
		switch {
		case len(rows) == 0 && len(runs) == 0 && cerr != nil:
			sawNone = true
		case len(rows) == nRows && len(runs) == 1 && cerr == nil:
			sawAll = true
		default:
			t.Fatalf("crash at op %d (merge ops %d..%d): recovered %d of %d rows, %d of 1 run-metrics rows, campaign row err=%v",
				k, first, last-1, len(rows), nRows, len(runs), cerr)
		}
	}
	if !sawNone || !sawAll {
		t.Fatalf("sweep over merge ops %d..%d never recovered both outcomes (none %t, all %t)", first, last-1, sawNone, sawAll)
	}
}
