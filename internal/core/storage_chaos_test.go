package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// chaosRun executes campaign c over a file-backed WAL store whose every
// storage operation routes through a vfs.Faulty with transient-only error
// rates, then proves the logged rows are also the durable ones by reopening
// the file through the plain OS. It fails the test if no fault was actually
// injected — a quiet disk proves nothing.
func chaosRun(t *testing.T, c Campaign, faults string) ([]dbase.ExperimentRow, Summary) {
	t.Helper()
	fcfg, err := vfs.ParseFaultyConfig(faults)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := vfs.NewFaulty(vfs.OS{}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.db")
	store, err := dbase.OpenStoreWALFS(path, fsys, sqldb.WALOptions{SyncEvery: 1, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ops := target.NewDefaultThorTarget()
	if err := RegisterTarget(store, ops, "storage chaos target"); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ops, store, c)
	if c.Workers > 1 {
		r.Factory = target.DefaultThorFactory()
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("campaign under transient storage chaos failed: %v", err)
	}
	if err := store.Save(); err != nil {
		t.Fatalf("final save under transient storage chaos failed: %v", err)
	}
	rows := campaignRows(t, store, c.Name)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fsys.Stats(); st.InjectedErrors == 0 {
		t.Fatalf("no storage faults injected across %d ops — the chaos rates or seed need retuning", st.Ops)
	}

	plain, err := dbase.OpenStore(path)
	if err != nil {
		t.Fatalf("plain reopen of the chaos-written store failed: %v", err)
	}
	durable := campaignRows(t, plain, c.Name)
	if !reflect.DeepEqual(rows, durable) {
		t.Fatalf("durable rows differ from the rows the live store reported: live %d, durable %d", len(rows), len(durable))
	}
	return rows, sum
}

// TestStorageChaosCampaignMatchesFaultFree is the acceptance property of the
// -storage-chaos flag: with transient-only fault rates every layer's retry
// (WAL group commit, checkpoint, store flush, experiment logging) absorbs
// the injected errors, so the campaign's rows and summary are byte-identical
// to a fault-free in-memory run. Covers the one-worker (sequential) and the
// multi-worker pool, both logging through the same stage.
func TestStorageChaosCampaignMatchesFaultFree(t *testing.T) {
	const faults = "open=0.02,read=0.02,write=0.05,sync=0.05,rename=0.02,seed=11"
	c := scifiCampaign("storage-chaos", 18)

	opsBase, storeBase := newEnv(t)
	sumBase, err := NewRunner(opsBase, storeBase, c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	base := campaignRows(t, storeBase, c.Name)
	if len(base) != c.NExperiments+1 {
		t.Fatalf("baseline rows = %d, want %d", len(base), c.NExperiments+1)
	}

	seqRows, seqSum := chaosRun(t, c, faults)
	if !reflect.DeepEqual(base, seqRows) {
		t.Errorf("sequential chaos rows differ from the fault-free baseline")
	}
	if seqSum.Completed != sumBase.Completed || !reflect.DeepEqual(seqSum.Terminations, sumBase.Terminations) {
		t.Errorf("sequential chaos summary differs: %+v vs baseline %+v", seqSum, sumBase)
	}

	cPar := c
	cPar.Workers = 4
	parRows, parSum := chaosRun(t, cPar, faults)
	if !reflect.DeepEqual(base, parRows) {
		t.Errorf("parallel chaos rows differ from the fault-free baseline")
	}
	if parSum.Completed != sumBase.Completed || !reflect.DeepEqual(parSum.Terminations, sumBase.Terminations) {
		t.Errorf("parallel chaos summary differs: %+v vs baseline %+v", parSum, sumBase)
	}
}
