package service

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/vfs"
)

// countingFS passes every operation to the real filesystem and counts what
// the storage cost of a campaign is made of: the files created, the fsyncs
// issued (on files and directories alike) and the write-ahead logs opened
// for writing. A read-only open of <path>.wal is the probe every Open makes
// for a crashed WAL session's log, and is not counted.
type countingFS struct {
	vfs.OS
	mu        sync.Mutex
	creates   []string
	syncs     int
	walWrites int
}

func (c *countingFS) note(name string, flag int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if flag&os.O_CREATE != 0 {
		c.creates = append(c.creates, name)
	}
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 && strings.HasSuffix(name, ".wal") {
		c.walWrites++
	}
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (vfs.File, error) {
	c.note(name, os.O_RDONLY)
	return c.wrap(c.OS.Open(name))
}

func (c *countingFS) Create(name string) (vfs.File, error) {
	c.note(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	return c.wrap(c.OS.Create(name))
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	c.note(name, flag)
	return c.wrap(c.OS.OpenFile(name, flag, perm))
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.note(name, os.O_RDONLY)
	return c.OS.ReadFile(name)
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f countingFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// TestCampaignStoreWrittenOnce pins the storage cost of one completed
// service campaign: its file is written once, by one vfs.WriteFileDurable
// (one created temp file, an fsync of it and one of the directory), and no
// write-ahead log exists beside it.
func TestCampaignStoreWrittenOnce(t *testing.T) {
	fsys := &countingFS{}
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, FS: fsys})
	spec := testSpec("acme", "once", 50, 7)
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, s, spec.ID()); st.Status != StatusDone {
		t.Fatalf("campaign %s: %s", st.Status, st.Error)
	}

	fsys.mu.Lock()
	creates, syncs, walWrites := fsys.creates, fsys.syncs, fsys.walWrites
	fsys.mu.Unlock()
	path := filepath.Join(dir, spec.Tenant, spec.Campaign+".db")
	if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
		t.Errorf("%s.wal exists (stat err %v)", path, err)
	}
	if walWrites != 0 {
		t.Errorf("the campaign opened a write-ahead log for writing %d times", walWrites)
	}
	if len(creates) != 1 {
		t.Errorf("created %d files %v, want 1 (the image's temp file)", len(creates), creates)
	}
	if syncs != 2 {
		t.Errorf("%d fsyncs, want 2 (one vfs.WriteFileDurable)", syncs)
	}
	if n := len(tenantRows(t, dir, spec)); n != spec.Experiments+1 {
		t.Fatalf("campaign file holds %d rows, want %d (the reference run's and one per experiment)", n, spec.Experiments+1)
	}
}

// campaignFile is what a reopened campaign file holds.
type campaignFile struct {
	exists                 bool
	dump                   string
	rows, analysis, traces int
	experiments            []dbase.ExperimentRow
}

func readCampaignFile(t *testing.T, path string, campaign string) campaignFile {
	t.Helper()
	var f campaignFile
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return f
	}
	f.exists = true
	s, err := dbase.OpenStoreFS(path, vfs.OS{})
	if err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	defer s.Close()
	f.dump = s.DB().Dump()
	if f.experiments, err = s.Experiments(campaign); err != nil {
		t.Fatal(err)
	}
	analysis, err := s.AnalysisResults(campaign)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := s.TraceEvents(campaign)
	if err != nil {
		t.Fatal(err)
	}
	f.rows, f.analysis, f.traces = len(f.experiments), len(analysis), len(traces)
	return f
}

// drainedImage runs spec on a server over the real filesystem and drains it
// mid-run, returning the campaign file the drain saved: the registration,
// the campaign row, the rows logged so far and the journal, unclassified.
func drainedImage(t *testing.T, spec Spec) []byte {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		dir := t.TempDir()
		s, err := New(Options{DataDir: dir, MonitorInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, spec.ID(), 3)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := s.Status(spec.ID()); st.Status != StatusInterrupted {
			continue // the campaign finished before the drain landed
		}
		data, err := os.ReadFile(filepath.Join(dir, spec.Tenant, spec.Campaign+".db"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	t.Fatal("campaign finished before every drain")
	return nil
}

// TestCampaignSaveCrashSweep power-cuts the filesystem at every op a service
// campaign makes on its store — the open that loads the campaign file and
// the Save that replaces it — then reopens the file. Save is one atomic
// image rename, so the file holds what it held before the campaign ran or
// all of what the campaign added (its rows, their AnalysisResult rows and
// its trace journal), never a mix.
func TestCampaignSaveCrashSweep(t *testing.T) {
	spec := testSpec("acme", "sweep", 100, 5)
	// A completed campaign starts from no file: afterwards it is absent or
	// complete.
	t.Run("completed", func(t *testing.T) { sweepCampaignSave(t, spec, nil) })
	// A resumed campaign starts from a drained image: afterwards the file
	// holds that image or the complete campaign.
	t.Run("resumed", func(t *testing.T) { sweepCampaignSave(t, spec, drainedImage(t, spec)) })
}

func sweepCampaignSave(t *testing.T, spec Spec, image []byte) {
	// stage writes the campaign file the run starts from, if any, under dir.
	stage := func(dir string) string {
		path := filepath.Join(dir, spec.Tenant, spec.Campaign+".db")
		if image == nil {
			return path
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// run executes the campaign to a terminal state on a fresh server over
	// fsys and returns the op count when the server was up, the op count
	// when the campaign ended, and how many events its journal held.
	run := func(dir string, fsys *vfs.Faulty) (first, last int64, events int) {
		s, err := New(Options{DataDir: dir, FS: fsys, MonitorInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		first = fsys.Stats().Ops
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
		waitStatus(t, s, spec.ID())
		last = fsys.Stats().Ops
		s.mu.Lock()
		events = len(s.jobs[spec.ID()].rec.Journal().Events())
		s.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) // persists nothing: the campaign ended
		return first, last, events
	}

	before := campaignFile{}
	if image != nil {
		before = readCampaignFile(t, stage(t.TempDir()), spec.Campaign)
	}

	// Calibrate: the ops of one uncrashed campaign, and the file it leaves.
	calib, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true})
	if err != nil {
		t.Fatal(err)
	}
	calibDir := t.TempDir()
	calibPath := stage(calibDir)
	first, last, _ := run(calibDir, calib)
	want := readCampaignFile(t, calibPath, spec.Campaign)
	if want.rows != spec.Experiments+1 || want.analysis != spec.Experiments {
		t.Fatalf("uncrashed campaign saved %d rows and %d analysis rows, want %d and %d",
			want.rows, want.analysis, spec.Experiments+1, spec.Experiments)
	}

	sawBefore, sawAll := false, false
	// Crashing at op last cuts the power just after the campaign ended.
	for k := first; k <= last; k++ {
		dir := t.TempDir()
		path := stage(dir)
		fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true, CrashAtOp: k})
		if err != nil {
			t.Fatal(err)
		}
		_, _, events := run(dir, fsys) // fails from op k on
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		got := readCampaignFile(t, path, spec.Campaign)
		switch {
		case got.exists == before.exists && got.dump == before.dump:
			sawBefore = true
		case got.exists && got.rows == want.rows && got.analysis == want.analysis &&
			got.traces == before.traces+events:
			requireSameRows(t, want.experiments, got.experiments, "recovered campaign")
			sawAll = true
		default:
			t.Fatalf("crash at op %d (campaign ops %d..%d): file exists %t with %d of %d rows, %d analysis rows, %d trace events (before the run: %d rows, %d trace events; the run journalled %d)",
				k, first, last-1, got.exists, got.rows, want.rows, got.analysis, got.traces, before.rows, before.traces, events)
		}
	}
	t.Logf("swept campaign ops %d..%d", first, last-1)
	if !sawBefore || !sawAll {
		t.Fatalf("sweep over ops %d..%d never recovered both outcomes (before %t, complete %t)", first, last-1, sawBefore, sawAll)
	}
}
