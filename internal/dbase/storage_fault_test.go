package dbase

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/sqldb"
	"goofi/internal/vfs"
)

func newFaultyT(t *testing.T, cfg vfs.FaultyConfig) *vfs.Faulty {
	t.Helper()
	fsys, err := vfs.NewFaulty(vfs.OS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

// TestOpenStoreFSRetriesTransientFault: a transient read error on the image
// load (op 0 is always the image ReadFile) must not surface from
// OpenStoreFS — the retry loop rebuilds the database on a fresh attempt.
func TestOpenStoreFSRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.db")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	fsys := newFaultyT(t, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: 0, Kind: vfs.FaultReadErr}},
	})
	reopened, err := OpenStoreFS(path, fsys)
	if err != nil {
		t.Fatalf("open did not absorb a transient image-read fault: %v", err)
	}
	if _, err := reopened.GetTargetSystem(sampleTarget().TestCardName); err != nil {
		t.Fatalf("retried open lost the target row: %v", err)
	}
	if st := fsys.Stats(); st.InjectedErrors != 1 {
		t.Fatalf("injected errors = %d, want exactly the scheduled one", st.InjectedErrors)
	}
}

// TestOpenStoreWALFSRetriesTransientFault: same property on the WAL-mode
// open, whose first attempt dies before the sidecar replay even starts.
func TestOpenStoreWALFSRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.db")
	s, err := OpenStoreWAL(path, sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("walretry")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutExperiments(makeExperiments("walretry", 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := newFaultyT(t, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: 0, Kind: vfs.FaultReadErr}},
	})
	reopened, err := OpenStoreWALFS(path, fsys, sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatalf("WAL open did not absorb a transient image-read fault: %v", err)
	}
	defer reopened.Close()
	exps, err := reopened.Experiments("walretry")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 5 {
		t.Fatalf("retried WAL open recovered %d experiments, want 5", len(exps))
	}
	if st := fsys.Stats(); st.InjectedErrors != 1 {
		t.Fatalf("injected errors = %d, want exactly the scheduled one", st.InjectedErrors)
	}
}

// TestStoreSaveRetriesTransientFault: Save retries a transient fault on the
// checkpoint temp-file create (op 0 is the fresh-path image ReadFile, op 1
// the first save's CreateTemp), relying on the generation rollback to make
// the repeat attempt write the same image.
func TestStoreSaveRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.db")
	fsys := newFaultyT(t, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: 1, Kind: vfs.FaultOpenErr}},
	})
	s, err := OpenStoreFS(path, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatalf("save did not absorb a transient temp-create fault: %v", err)
	}
	if st := fsys.Stats(); st.InjectedErrors != 1 {
		t.Fatalf("injected errors = %d, want exactly the scheduled one", st.InjectedErrors)
	}
	plain, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.GetTargetSystem(sampleTarget().TestCardName); err != nil {
		t.Fatalf("image written by the retried save lost the target row: %v", err)
	}
}

// TestWALAppendRetriesTransientFault: a transient write error in the middle
// of a group-commit append is absorbed by the committer's retry (which
// truncates the torn batch before rewriting it). The fault op index is
// calibrated by a fault-free dry run of the identical call sequence, so the
// test does not hard-code WAL internals.
func TestWALAppendRetriesTransientFault(t *testing.T) {
	setup := func(t *testing.T, fsys *vfs.Faulty, dir string) *Store {
		t.Helper()
		s, err := OpenStoreWALFS(filepath.Join(dir, "camp.db"), fsys, sqldb.WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutTargetSystem(sampleTarget()); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCampaign(sampleCampaign("appendretry")); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Dry run: count ops up to (but not including) the experiment append.
	calib := newFaultyT(t, vfs.FaultyConfig{})
	dry := setup(t, calib, t.TempDir())
	appendOp := calib.Stats().Ops
	if err := dry.PutExperiments(makeExperiments("appendretry", 1)); err != nil {
		t.Fatal(err)
	}
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}

	// Real run: fault exactly the first op of that append.
	fsys := newFaultyT(t, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: uint64(appendOp), Kind: vfs.FaultWriteErr}},
	})
	dir := t.TempDir()
	s := setup(t, fsys, dir)
	if got := fsys.Stats().Ops; got != appendOp {
		t.Fatalf("op calibration drifted: dry run %d, real run %d", appendOp, got)
	}
	if err := s.PutExperiments(makeExperiments("appendretry", 1)); err != nil {
		t.Fatalf("append did not absorb a transient write fault: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := fsys.Stats(); st.InjectedErrors != 1 {
		t.Fatalf("injected errors = %d, want exactly the scheduled one", st.InjectedErrors)
	}

	// The retried batch must be replayable: a plain reopen sees the row.
	plain, err := OpenStore(filepath.Join(dir, "camp.db"))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := plain.Experiments("appendretry")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 {
		t.Fatalf("reopen after retried append found %d experiments, want 1", len(exps))
	}
}

// TestPutTargetSystemReportsFaultLocationError: re-registering a target
// whose FaultLocation delete hits a dead disk fails with that delete's
// error, not with whatever the following TargetSystemData delete reports.
// The fault op is calibrated by a dry run, as above.
func TestPutTargetSystemReportsFaultLocationError(t *testing.T) {
	setup := func(t *testing.T, fsys *vfs.Faulty) *Store {
		t.Helper()
		s, err := OpenStoreWALFS(filepath.Join(t.TempDir(), "camp.db"), fsys, sqldb.WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutTargetSystem(sampleTarget()); err != nil {
			t.Fatal(err)
		}
		err = s.PutFaultLocations([]LocationRow{{TestCardName: sampleTarget().TestCardName,
			LocationName: "internal.core/R0", ChainName: "internal.core", Width: 32, Writable: true}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	calib := newFaultyT(t, vfs.FaultyConfig{})
	dry := setup(t, calib)
	deleteOp := calib.Stats().Ops
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := newFaultyT(t, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: uint64(deleteOp), Kind: vfs.FaultSticky}},
	})
	s := setup(t, fsys)
	defer s.Close()
	err := s.PutTargetSystem(sampleTarget())
	switch {
	case err == nil:
		t.Fatal("re-registration over a dead disk succeeded")
	case !vfs.IsInjected(err) || errors.Is(err, sqldb.ErrForeignKey):
		t.Fatalf("err = %v, want the injected storage fault", err)
	case !strings.Contains(err.Error(), "fault locations"):
		t.Fatalf("err = %v, want it to name the FaultLocation delete", err)
	}
}
