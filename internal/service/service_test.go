package service

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSpec is the canonical submission the suite reuses: a seeded SCIFI
// campaign over the simulated Thor target.
func testSpec(tenant, campaign string, n int, seed int64) Spec {
	return Spec{
		Tenant:      tenant,
		Campaign:    campaign,
		Workload:    "bubblesort",
		Locations:   "chain:internal.core",
		Experiments: n,
		Seed:        seed,
		TMax:        1400,
	}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	if opts.MonitorInterval == 0 {
		opts.MonitorInterval = 10 * time.Millisecond
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// waitStatus polls until the campaign reaches a terminal state.
func waitStatus(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		switch st.Status {
		case StatusDone, StatusFailed, StatusCancelled, StatusInterrupted:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return Status{}
}

// waitRunning polls until the scheduler has dispatched the campaign — the
// submission itself only enqueues it.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == StatusRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign %s never started", id)
}

// referenceRows runs the same campaign single-process on an in-memory store
// — the ground truth every service execution must reproduce exactly.
func referenceRows(t *testing.T, spec Spec) []dbase.ExperimentRow {
	t.Helper()
	c, err := spec.campaign()
	if err != nil {
		t.Fatal(err)
	}
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	ops, factory, err := buildTarget(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterTarget(store, ops, "reference"); err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(ops, store, c)
	r.Factory = factory
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows, err := store.Experiments(spec.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// tenantRows reopens the campaign's persisted database file and returns the
// campaign's rows.
func tenantRows(t *testing.T, dataDir string, spec Spec) []dbase.ExperimentRow {
	t.Helper()
	path := filepath.Join(dataDir, spec.Tenant, spec.Campaign+".db")
	store, err := dbase.OpenStoreFS(path, vfs.OS{})
	if err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	defer store.Close()
	rows, err := store.Experiments(spec.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func requireSameRows(t *testing.T, want, got []dbase.ExperimentRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d differs:\nwant %+v\ngot  %+v", label, i, want[i], got[i])
		}
	}
}

// rowsDigest is the canonical SHA-256 of a row set, covering every column —
// the golden files pin it across releases.
func rowsDigest(rows []dbase.ExperimentRow) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%d|%d|%x\n",
			r.ExperimentName, r.ParentExperiment, r.CampaignName,
			r.ExperimentData, r.TerminationReason, r.Mechanism,
			r.Cycles, r.Iterations, r.StateVector)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (run with -update): %v", name, err)
	}
	if strings.TrimSpace(string(want)) != got {
		t.Fatalf("%s: digest %s does not match golden %s", name, got, strings.TrimSpace(string(want)))
	}
}

// TestServiceRunMatchesDirectRun is the core service contract: a campaign
// executed by the daemon persists exactly the rows a direct single-process
// run produces.
func TestServiceRunMatchesDirectRun(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir})
	spec := testSpec("acme", "svc-basic", 12, 42)

	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, spec.ID())
	if st.Status != StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}
	if st.Done != 12 {
		t.Fatalf("done = %d, want 12", st.Done)
	}
	requireSameRows(t, referenceRows(t, spec), tenantRows(t, dir, spec), "service run")
}

// TestShardedServiceMatchesUnsharded submits the same seeded campaign twice
// — once unsharded, once split across 3 shards — and requires bit-identical
// persisted rows, additionally pinned by a SHA-256 golden.
func TestShardedServiceMatchesUnsharded(t *testing.T) {
	dirA := t.TempDir()
	sA := newTestServer(t, Options{DataDir: dirA})
	plain := testSpec("acme", "svc-shard", 13, 7)
	if _, err := sA.Submit(plain); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, sA, plain.ID()); st.Status != StatusDone {
		t.Fatalf("unsharded: %s (%s)", st.Status, st.Error)
	}

	dirB := t.TempDir()
	sB := newTestServer(t, Options{DataDir: dirB})
	sharded := plain
	sharded.Shards = 3
	if _, err := sB.Submit(sharded); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, sB, sharded.ID()); st.Status != StatusDone {
		t.Fatalf("sharded: %s (%s)", st.Status, st.Error)
	}

	want := tenantRows(t, dirA, plain)
	got := tenantRows(t, dirB, sharded)
	requireSameRows(t, want, got, "sharded reassembly")
	checkGolden(t, "shard_golden.txt", rowsDigest(got))
}

// TestReportClassifiedAtCompletion: the served report is exactly a fresh
// classification of the persisted rows, the tenant store already holds the
// AnalysisResult rows a cross report reads, and a report asked for before
// the campaign is done conflicts.
func TestReportClassifiedAtCompletion(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s := newTestServer(t, Options{DataDir: dir, Concurrency: 1})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			getReport := func(id string) (int, []byte) {
				t.Helper()
				resp, err := http.Get(srv.URL + "/campaigns/" + id + "/report")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}

			// A long campaign holds the only slot, so the one under test
			// waits in the queue: neither may report yet.
			blocker := testSpec("acme", "blocker", 8000, 1)
			if _, err := s.Submit(blocker); err != nil {
				t.Fatal(err)
			}
			waitRunning(t, s, blocker.ID())
			spec := testSpec("acme", "rep", 13, 7)
			spec.Shards = shards
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{blocker.ID(), spec.ID()} {
				if code, body := getReport(id); code != http.StatusConflict {
					t.Fatalf("report of unfinished %s = %d %s, want 409", id, code, body)
				}
			}
			if _, err := s.Cancel(blocker.ID()); err != nil {
				t.Fatal(err)
			}
			if st := waitStatus(t, s, spec.ID()); st.Status != StatusDone {
				t.Fatalf("status = %s (%s)", st.Status, st.Error)
			}

			code, body := getReport(spec.ID())
			if code != http.StatusOK {
				t.Fatalf("report = %d %s", code, body)
			}
			var served analysis.Report
			if err := json.Unmarshal(body, &served); err != nil {
				t.Fatal(err)
			}

			store, err := dbase.OpenStoreFS(filepath.Join(dir, spec.Tenant, spec.Campaign+".db"), vfs.OS{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			// Cross reads the stored AnalysisResult rows and refuses a
			// campaign that was never analysed.
			cr, err := analysis.Cross(store, []string{spec.Campaign}, nil)
			if err != nil {
				t.Fatalf("cross report on the tenant store: %v", err)
			}
			if got := cr.Campaigns[0].Report; !reflect.DeepEqual(got, served) {
				t.Fatalf("stored analysis differs from the served report:\nstored %+v\nserved %+v", got, served)
			}
			fresh, err := analysis.Classify(store, spec.Campaign)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(served, fresh) {
				t.Fatalf("served report differs from a fresh classification:\nserved %+v\nfresh  %+v", served, fresh)
			}
		})
	}
}

// TestMultiTenantConcurrent storms the daemon with 8 campaigns across 4
// tenants and verifies every one lands exactly its reference rows — the
// isolation contract, exercised under -race by make race.
func TestMultiTenantConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, Concurrency: 4, QueueLimit: 16})

	var specs []Spec
	for i := 0; i < 8; i++ {
		spec := testSpec(fmt.Sprintf("tenant%d", i%4), fmt.Sprintf("camp%d", i), 6+i, int64(100+i))
		if i%3 == 0 {
			spec.Shards = 2
		}
		if i%2 == 1 {
			spec.Workers = 2
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %s: %v", spec.ID(), err)
		}
	}
	for _, spec := range specs {
		if st := waitStatus(t, s, spec.ID()); st.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", spec.ID(), st.Status, st.Error)
		}
	}
	for _, spec := range specs {
		requireSameRows(t, referenceRows(t, spec), tenantRows(t, dir, spec), spec.ID())
	}
}

// TestQueueBackpressure fills the bounded queue and checks the overflow
// submission is rejected with ErrQueueFull while a duplicate gets ErrExists.
func TestQueueBackpressure(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir(), Concurrency: 1, QueueLimit: 1})

	// A large campaign occupies the single execution slot for the whole test.
	big := testSpec("acme", "big", 8000, 1)
	if _, err := s.Submit(big); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, big.ID())
	queued := testSpec("acme", "queued", 4, 2)
	if _, err := s.Submit(queued); err != nil {
		t.Fatal(err)
	}
	overflow := testSpec("acme", "overflow", 4, 3)
	if _, err := s.Submit(overflow); !isErr(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(queued); !isErr(err, ErrExists) {
		t.Fatalf("duplicate err = %v, want ErrExists", err)
	}

	// Cancelling the running campaign frees the slot; the queued one drains.
	if _, err := s.Cancel(big.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, s, big.ID()); st.Status != StatusCancelled {
		t.Fatalf("big: %s", st.Status)
	}
	if st := waitStatus(t, s, queued.ID()); st.Status != StatusDone {
		t.Fatalf("queued: %s (%s)", st.Status, st.Error)
	}
}

func isErr(err, want error) bool { return err != nil && strings.Contains(err.Error(), want.Error()) }

// TestDrainPersistsAndResumes is the graceful-shutdown contract: SIGTERM
// (modelled by Drain) interrupts the running campaign after a checkpoint,
// persists the queue, and a fresh server over the same data dir finishes
// both campaigns with rows identical to never having been interrupted —
// whatever the width the campaign runs at.
func TestDrainPersistsAndResumes(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Options{DataDir: dir, Concurrency: 1, MonitorInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			running := testSpec("acme", "interrupted", 8000, 11)
			running.Shards = shards
			queued := testSpec("acme", "patient", 5, 12)
			queued.Shards = shards
			if _, err := s.Submit(running); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(queued); err != nil {
				t.Fatal(err)
			}
			// Let the running campaign log some rows first, so the restart
			// below genuinely resumes rather than starting over.
			waitDone(t, s, running.ID(), 3)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if st, _ := s.Status(running.ID()); st.Status != StatusInterrupted {
				t.Fatalf("running campaign after drain: %s", st.Status)
			}
			if st, _ := s.Status(queued.ID()); st.Status != StatusQueued {
				t.Fatalf("queued campaign after drain: %s", st.Status)
			}
			if _, err := os.Stat(filepath.Join(dir, queueFile)); err != nil {
				t.Fatalf("queue file not persisted: %v", err)
			}
			// Interrupted rows are already durable on disk.
			if n := len(tenantRows(t, dir, running)); n == 0 {
				t.Fatal("no rows persisted before drain")
			}

			// Submissions during/after drain are refused.
			if _, err := s.Submit(testSpec("acme", "late", 3, 13)); !isErr(err, ErrDraining) {
				t.Fatalf("late submit err = %v, want ErrDraining", err)
			}

			// Restart: both campaigns resume from the queue file and finish.
			s2 := newTestServer(t, Options{DataDir: dir, Concurrency: 1})
			if st := waitStatus(t, s2, running.ID()); st.Status != StatusDone {
				t.Fatalf("resumed campaign: %s (%s)", st.Status, st.Error)
			}
			if st := waitStatus(t, s2, queued.ID()); st.Status != StatusDone {
				t.Fatalf("queued campaign after restart: %s (%s)", st.Status, st.Error)
			}
			// A drain with nothing left to resume clears the stale queue file.
			ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel2()
			if err := s2.Drain(ctx2); err != nil {
				t.Fatalf("second drain: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, queueFile)); !os.IsNotExist(err) {
				t.Fatalf("queue file should be gone after clean drain, stat err = %v", err)
			}

			requireSameRows(t, referenceRows(t, running), tenantRows(t, dir, running), "resumed campaign")
			requireSameRows(t, referenceRows(t, queued), tenantRows(t, dir, queued), "queued campaign")
		})
	}
}

// waitDone polls until the campaign's live progress passes n experiments.
func waitDone(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done > n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// finalRunMetrics reopens the tenant's persisted database and returns the
// campaign's closing CampaignRunMetrics row of every run.
func finalRunMetrics(t *testing.T, dataDir string, spec Spec) []dbase.RunMetricsRow {
	t.Helper()
	store, err := dbase.OpenStoreFS(filepath.Join(dataDir, spec.Tenant, spec.Campaign+".db"), vfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rows, err := store.FinalRunMetrics(spec.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRunMetricsReachTenantStore: every run of a service campaign leaves its
// final CampaignRunMetrics row in the tenant store, which `goofi report`
// reads, and a run resumed after a drain records under a new runId.
func TestRunMetricsReachTenantStore(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Options{DataDir: dir, MonitorInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			spec := testSpec("acme", "metered", 3000, 21)
			spec.Shards = shards
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
			waitDone(t, s, spec.ID(), 3)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if st, _ := s.Status(spec.ID()); st.Status != StatusInterrupted {
				t.Fatalf("campaign after drain: %s", st.Status)
			}
			first := finalRunMetrics(t, dir, spec)
			if len(first) != 1 {
				t.Fatalf("after the interrupted run: %d final run-metrics rows, want 1", len(first))
			}

			s2 := newTestServer(t, Options{DataDir: dir})
			if st := waitStatus(t, s2, spec.ID()); st.Status != StatusDone {
				t.Fatalf("resumed campaign: %s (%s)", st.Status, st.Error)
			}
			runs := finalRunMetrics(t, dir, spec)
			if len(runs) != 2 || runs[0].RunID == runs[1].RunID {
				t.Fatalf("after resume: final rows %+v, want two runs with distinct runIds", runs)
			}
			if runs[0] != first[0] {
				t.Fatalf("resume rewrote the first run's row:\nwas %+v\nnow %+v", first[0], runs[0])
			}
			if last := runs[1]; last.Done != spec.Experiments || last.Skipped != first[0].Done {
				t.Fatalf("resumed run's final row: done %d skipped %d, want %d and %d",
					last.Done, last.Skipped, spec.Experiments, first[0].Done)
			}
		})
	}
}

// TestOneReferenceRunPerCampaign: a campaign runs the fault-free reference
// once whatever its width — Shards multiplies workers, it does not repeat
// the reference.
func TestOneReferenceRunPerCampaign(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	spec := testSpec("acme", "oneref", 13, 7)
	spec.Shards = 3
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, s, spec.ID()); st.Status != StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}
	s.mu.Lock()
	events := s.jobs[spec.ID()].rec.Journal().Events()
	s.mu.Unlock()
	refs, attempts := 0, 0
	for _, ev := range events {
		if ev.Kind != obsv.EvAttempt {
			continue
		}
		attempts++
		if ev.Experiment == spec.Campaign+core.RefSuffix {
			refs++
		}
	}
	if refs != 1 || attempts != spec.Experiments+1 {
		t.Fatalf("journal holds %d reference attempts and %d attempts in all, want 1 and %d",
			refs, attempts, spec.Experiments+1)
	}
}

// TestServiceStorageChaos runs the whole service over a fault-injecting
// filesystem with transient faults on every op class: the retry layers must
// absorb them and the persisted rows must still match the reference.
func TestServiceStorageChaos(t *testing.T) {
	cfg, err := vfs.ParseFaultyConfig("open=0.02,read=0.02,write=0.02,sync=0.02,rename=0.02,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := vfs.NewFaulty(vfs.OS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir, FS: fsys})
	spec := testSpec("acme", "stormy", 10, 77)
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, s, spec.ID()); st.Status != StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}
	requireSameRows(t, referenceRows(t, spec), tenantRows(t, dir, spec), "storage chaos")
}

// TestSpecValidation rejects malformed submissions before they reach the
// queue.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty tenant", func(s *Spec) { s.Tenant = "" }},
		{"path traversal tenant", func(s *Spec) { s.Tenant = ".." }},
		{"slash in campaign", func(s *Spec) { s.Campaign = "a/b" }},
		{"hidden campaign", func(s *Spec) { s.Campaign = ".sneaky" }},
		{"unknown workload", func(s *Spec) { s.Workload = "no-such" }},
		{"zero experiments", func(s *Spec) { s.Experiments = 0 }},
		{"negative shards", func(s *Spec) { s.Shards = -1 }},
		{"bad timeout", func(s *Spec) { s.Timeout = "soon" }},
		{"bad chaos", func(s *Spec) { s.Chaos = "explode=yes" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("acme", "ok", 4, 1)
			tc.mut(&spec)
			if err := spec.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", spec)
			}
		})
	}
}

// --- HTTP API ---

// TestHTTPLifecycle drives the full API over real HTTP: submit a chaos
// campaign, stream its event frames, read the final status, fetch the
// analysis report and check its taxonomy adds up.
func TestHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{DataDir: dir})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := testSpec("acme", "httpcamp", 20, 5)
	spec.Chaos = "err=0.05,seed=5"
	spec.Workers = 2
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/campaigns/acme/httpcamp" {
		t.Fatalf("Location = %q", loc)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != "acme/httpcamp" || st.Total != 20 {
		t.Fatalf("submit status doc = %+v", st)
	}

	// Stream events until the final frame: Seq strictly increases, Done is
	// monotonic, and the final frame accounts for every experiment.
	resp, err = http.Get(srv.URL + "/campaigns/acme/httpcamp/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type = %q", ct)
	}
	var last obsv.CampaignEvent
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev obsv.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("frame %d: %v", seen, err)
		}
		if seen > 0 {
			if ev.Seq <= last.Seq {
				t.Fatalf("seq not increasing: %d after %d", ev.Seq, last.Seq)
			}
			if ev.Done < last.Done {
				t.Fatalf("done regressed: %d after %d", ev.Done, last.Done)
			}
		}
		last = ev
		seen++
	}
	resp.Body.Close()
	if !last.Final || last.Done != 20 {
		t.Fatalf("final frame = %+v (saw %d frames)", last, seen)
	}

	if st := waitStatus(t, s, "acme/httpcamp"); st.Status != StatusDone {
		t.Fatalf("status = %s (%s)", st.Status, st.Error)
	}

	// A late events subscriber still gets the final frame immediately.
	resp, err = http.Get(srv.URL + "/campaigns/acme/httpcamp/events")
	if err != nil {
		t.Fatal(err)
	}
	var replay obsv.CampaignEvent
	sc = bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no replay frame for finished campaign")
	}
	if err := json.Unmarshal(sc.Bytes(), &replay); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !replay.Final {
		t.Fatalf("replay frame not final: %+v", replay)
	}

	// Report: the outcome taxonomy must cover all 20 experiments.
	resp, err = http.Get(srv.URL + "/campaigns/acme/httpcamp/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	var rep analysis.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Total+rep.Failed != 20 {
		t.Fatalf("report classified %d+%d experiments, want 20: %+v", rep.Total, rep.Failed, rep)
	}
	if rep.Effective+rep.NonEffective != rep.Total {
		t.Fatalf("taxonomy does not add up: %+v", rep)
	}

	// Listing includes the campaign; status endpoint agrees.
	resp, err = http.Get(srv.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != "acme/httpcamp" {
		t.Fatalf("list = %+v", list)
	}

	// Metrics: the multiplexed exposition labels series with the campaign id.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(strings.Builder)
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		metrics.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	if !strings.Contains(metrics.String(), `campaign="acme/httpcamp"`) {
		t.Fatalf("metrics exposition lacks campaign label:\n%.400s", metrics.String())
	}

	// DELETE forgets the finished campaign, freeing the id.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/acme/httpcamp", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if _, err := s.Status("acme/httpcamp"); !isErr(err, ErrNotFound) {
		t.Fatalf("status after delete = %v", err)
	}
}

// TestHTTPErrors maps every failure mode onto its status code.
func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir(), Concurrency: 1, QueueLimit: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(spec Spec) *http.Response {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp, err := http.Get(srv.URL + "/campaigns/no/body"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp := post(testSpec("", "bad", 4, 1)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed json status = %d", resp.StatusCode)
	}

	// Fill the slot and the queue, then overflow and duplicate.
	if resp := post(testSpec("acme", "big", 8000, 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("big status = %d", resp.StatusCode)
	}
	waitRunning(t, s, "acme/big")
	if resp := post(testSpec("acme", "q1", 4, 2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q1 status = %d", resp.StatusCode)
	}
	resp = post(testSpec("acme", "q2", 4, 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp := post(testSpec("acme", "q1", 4, 2)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status = %d", resp.StatusCode)
	}

	// A report for an unfinished campaign conflicts.
	if resp, err := http.Get(srv.URL + "/campaigns/acme/big/report"); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("early report: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	if _, err := s.Cancel("acme/big"); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, "acme/big")
	waitStatus(t, s, "acme/q1")
}

// TestTargetFailureMarksFailed: a campaign whose spec cannot build a runnable
// target must land in StatusFailed, not wedge the queue.
func TestTargetFailureMarksFailed(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	spec := testSpec("acme", "doomed", 4, 1)
	spec.Locations = "chain:no.such.chain"
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, s, spec.ID())
	if st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("status = %+v", st)
	}
	// The failure freed the execution slot: the next campaign still runs.
	ok := testSpec("acme", "fine", 4, 2)
	if _, err := s.Submit(ok); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, s, ok.ID()); st.Status != StatusDone {
		t.Fatalf("follow-up: %s (%s)", st.Status, st.Error)
	}
}

func TestSplitID(t *testing.T) {
	if tn, c, ok := splitID("a/b"); !ok || tn != "a" || c != "b" {
		t.Fatalf("splitID = %q %q %v", tn, c, ok)
	}
	for _, bad := range []string{"", "a", "/b", "a/"} {
		if _, _, ok := splitID(bad); ok {
			t.Fatalf("splitID accepted %q", bad)
		}
	}
}

// mustTarget is a compile-time style assertion that the target package's
// chaos seam used by buildTarget stays available.
var _ = target.ParseFlakyConfig
