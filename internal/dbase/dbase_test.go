package dbase

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goofi/internal/obsv"
	"goofi/internal/sqldb"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleTarget() TargetSystem {
	return TargetSystem{TestCardName: "thor-rd", Description: "simulated Thor RD card", MemSize: 65536, ROMSize: 16384}
}

func sampleCampaign(name string) CampaignRow {
	return CampaignRow{
		CampaignName:   name,
		TestCardName:   "thor-rd",
		Workload:       "bubblesort",
		Technique:      "scifi",
		FaultModel:     "transient",
		LocationFilter: "chain:internal.core",
		NExperiments:   100,
		Seed:           42,
		InjectMinTime:  10,
		InjectMaxTime:  5000,
		MaxCycles:      50000,
	}
}

func TestSchemaInstalled(t *testing.T) {
	s := newStore(t)
	tables := s.DB().Tables()
	want := []string{"TargetSystemData", "FaultLocation", "CampaignData", "LoggedSystemState", "AnalysisResult", "CampaignRunMetrics", "ExperimentTraceEvents"}
	if len(tables) != len(want) {
		t.Fatalf("tables = %v", tables)
	}
	for i, w := range want {
		if tables[i] != w {
			t.Fatalf("table %d = %s, want %s", i, tables[i], w)
		}
	}
}

func TestTargetSystemRoundTrip(t *testing.T) {
	s := newStore(t)
	ts := sampleTarget()
	if err := s.PutTargetSystem(ts); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetTargetSystem("thor-rd")
	if err != nil {
		t.Fatal(err)
	}
	if got != ts {
		t.Fatalf("got %+v", got)
	}
	if _, err := s.GetTargetSystem("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	names, err := s.TargetSystems()
	if err != nil || len(names) != 1 || names[0] != "thor-rd" {
		t.Fatalf("names = %v, %v", names, err)
	}
	// Replacing is allowed.
	ts.Description = "updated"
	if err := s.PutTargetSystem(ts); err != nil {
		t.Fatal(err)
	}
	got, _ = s.GetTargetSystem("thor-rd")
	if got.Description != "updated" {
		t.Fatal("replace failed")
	}
	if err := s.PutTargetSystem(TargetSystem{}); err == nil {
		t.Fatal("empty name should fail")
	}
}

func TestFaultLocations(t *testing.T) {
	s := newStore(t)
	locs := []LocationRow{
		{TestCardName: "thor-rd", LocationName: "internal.core/R0", ChainName: "internal.core", FirstBit: 0, Width: 32, Writable: true},
		{TestCardName: "thor-rd", LocationName: "internal.debug/cycles", ChainName: "internal.debug", FirstBit: 99, Width: 64, Writable: false},
	}
	if err := s.PutTargetSystem(sampleTarget(), locs...); err != nil {
		t.Fatal(err)
	}
	got, err := s.FaultLocations("thor-rd")
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
	if got[0].LocationName != "internal.core/R0" || !got[0].Writable {
		t.Fatalf("got[0] = %+v", got[0])
	}
	if got[1].Writable {
		t.Fatalf("got[1] = %+v", got[1])
	}
	// FK: a location of an unknown target is rejected, and the failing
	// re-registration is undone whole: the target keeps its row and the
	// inventory its DELETE had already cleared.
	desc := sampleTarget()
	desc.Description = "replaced"
	err = s.PutTargetSystem(desc, LocationRow{TestCardName: "ghost", LocationName: "x", ChainName: "c", Width: 1})
	if !errors.Is(err, sqldb.ErrForeignKey) {
		t.Fatalf("orphan location: err = %v, want a foreign-key violation", err)
	}
	if ts, err := s.GetTargetSystem("thor-rd"); err != nil || ts != sampleTarget() {
		t.Fatalf("failed re-registration left target %+v, %v", ts, err)
	}
	if got, err := s.FaultLocations("thor-rd"); err != nil || len(got) != 2 {
		t.Fatalf("failed re-registration left %d locations, %v; want 2", len(got), err)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	s := newStore(t)
	// FK: campaign without its target is rejected (paper §2.3).
	if err := s.PutCampaign(sampleCampaign("c1")); err == nil {
		t.Fatal("campaign without target should fail")
	}
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	c := sampleCampaign("c1")
	c.TriggerSpec = "branch:3"
	c.DetailMode = true
	c.EnvSimulator = "jet-engine"
	c.MaxIterations = 120
	if err := s.PutCampaign(c); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCampaign("c1")
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("got %+v\nwant %+v", got, c)
	}
	if _, err := s.GetCampaign("zz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Duplicate campaign names are rejected by the PK.
	if err := s.PutCampaign(c); err == nil {
		t.Fatal("duplicate campaign should fail")
	}
	names, _ := s.Campaigns()
	if len(names) != 1 || names[0] != "c1" {
		t.Fatalf("names = %v", names)
	}
}

func TestMergeCampaigns(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	c1 := sampleCampaign("c1")
	c2 := sampleCampaign("c2")
	c2.LocationFilter = "chain:internal.icache"
	c2.NExperiments = 50
	c2.InjectMaxTime = 9000
	if err := s.PutCampaign(c1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(c2); err != nil {
		t.Fatal(err)
	}
	merged, err := s.MergeCampaigns("both", "c1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if merged.NExperiments != 150 || merged.InjectMaxTime != 9000 {
		t.Fatalf("merged = %+v", merged)
	}
	if !strings.Contains(merged.LocationFilter, "internal.core") ||
		!strings.Contains(merged.LocationFilter, "internal.icache") {
		t.Fatalf("filter = %q", merged.LocationFilter)
	}
	// Stored in the DB.
	if _, err := s.GetCampaign("both"); err != nil {
		t.Fatal(err)
	}
	// Mismatched campaigns cannot merge.
	c3 := sampleCampaign("c3")
	c3.Workload = "matmul"
	if err := s.PutCampaign(c3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MergeCampaigns("bad", "c1", "c3"); err == nil {
		t.Fatal("mismatched merge should fail")
	}
	if _, err := s.MergeCampaigns("single", "c1"); err == nil {
		t.Fatal("single-source merge should fail")
	}
}

func TestExperimentRoundTripAndParentTracking(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("c1")); err != nil {
		t.Fatal(err)
	}
	e1 := ExperimentRow{
		ExperimentName:    "c1/e1",
		CampaignName:      "c1",
		ExperimentData:    "t=100 flip scan:internal.core:35",
		TerminationReason: "detected",
		Mechanism:         "dcache-parity",
		Cycles:            1234,
		Iterations:        0,
		StateVector:       []byte{1, 2, 3},
	}
	if err := s.PutExperiment(e1); err != nil {
		t.Fatal(err)
	}
	// Fig. 4's parentExperiment scenario: a detail-mode rerun E2 of E1.
	e2 := e1
	e2.ExperimentName = "c1/e1/detail"
	e2.ParentExperiment = "c1/e1"
	if err := s.PutExperiment(e2); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetExperiment("c1/e1/detail")
	if err != nil {
		t.Fatal(err)
	}
	if got.ParentExperiment != "c1/e1" {
		t.Fatalf("parent = %q", got.ParentExperiment)
	}
	// A rerun referencing a missing parent violates the FK.
	e3 := e1
	e3.ExperimentName = "c1/e9/detail"
	e3.ParentExperiment = "c1/e9"
	if err := s.PutExperiment(e3); err == nil {
		t.Fatal("dangling parent should fail")
	}
	// Experiments for unknown campaigns are rejected.
	e4 := e1
	e4.ExperimentName = "x"
	e4.CampaignName = "ghost"
	if err := s.PutExperiment(e4); err == nil {
		t.Fatal("orphan experiment should fail")
	}
	all, err := s.Experiments("c1")
	if err != nil || len(all) != 2 {
		t.Fatalf("experiments = %v, %v", all, err)
	}
	if all[0].StateVector[2] != 3 {
		t.Fatal("state vector corrupted")
	}
	if _, err := s.GetExperiment("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalysisRows(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("c1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutExperiment(ExperimentRow{ExperimentName: "c1/e1", CampaignName: "c1"}); err != nil {
		t.Fatal(err)
	}
	rows := []AnalysisRow{{ExperimentName: "c1/e1", CampaignName: "c1", Outcome: "detected", Mechanism: "watchdog"}}
	if err := s.PutAnalysis(rows); err != nil {
		t.Fatal(err)
	}
	// Re-analysis replaces.
	rows[0].Outcome = "latent"
	rows[0].Mechanism = ""
	if err := s.PutAnalysis(rows); err != nil {
		t.Fatal(err)
	}
	got, err := s.AnalysisResults("c1")
	if err != nil || len(got) != 1 || got[0].Outcome != "latent" {
		t.Fatalf("got %v, %v", got, err)
	}
	// FK: analysis of unknown experiments rejected.
	if err := s.PutAnalysis([]AnalysisRow{{ExperimentName: "zz", CampaignName: "c1", Outcome: "x"}}); err == nil {
		t.Fatal("orphan analysis should fail")
	}
}

func TestStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("c1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutExperiment(ExperimentRow{
		ExperimentName: "c1/e1", CampaignName: "c1", StateVector: []byte{0xAA},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s2.GetExperiment("c1/e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.StateVector) != 1 || e.StateVector[0] != 0xAA {
		t.Fatalf("state vector = %v", e.StateVector)
	}
	// In-memory stores refuse Save.
	mem := newStore(t)
	if err := mem.Save(); err == nil {
		t.Fatal("in-memory save should fail")
	}
}

func TestDeleteCampaign(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("c1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("c2")); err != nil {
		t.Fatal(err)
	}
	// c1 gets experiments including a detail rerun and analysis rows.
	for _, e := range []ExperimentRow{
		{ExperimentName: "c1/e1", CampaignName: "c1"},
		{ExperimentName: "c1/e1/detail", ParentExperiment: "c1/e1", CampaignName: "c1"},
		{ExperimentName: "c2/e1", CampaignName: "c2"},
	} {
		if err := s.PutExperiment(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutAnalysis([]AnalysisRow{{ExperimentName: "c1/e1", CampaignName: "c1", Outcome: "latent"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCampaign("c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCampaign("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("campaign survived: %v", err)
	}
	if rows, _ := s.Experiments("c1"); len(rows) != 0 {
		t.Fatalf("experiments survived: %v", rows)
	}
	if rows, _ := s.AnalysisResults("c1"); len(rows) != 0 {
		t.Fatalf("analysis survived: %v", rows)
	}
	// Other campaigns are untouched.
	if rows, _ := s.Experiments("c2"); len(rows) != 1 {
		t.Fatalf("c2 experiments = %v", rows)
	}
	// Deleting a missing campaign fails cleanly.
	if err := s.DeleteCampaign("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestForeignKeyToNonPrimaryColumn(t *testing.T) {
	// The engine's FK slow path: a child referencing a UNIQUE non-PK
	// column of its parent.
	s := newStore(t)
	if err := s.DB().ExecScript(`
		CREATE TABLE host (id INTEGER PRIMARY KEY, tag TEXT UNIQUE);
		INSERT INTO host VALUES (1, 'alpha');
		CREATE TABLE probe (id INTEGER PRIMARY KEY, hostTag TEXT,
			FOREIGN KEY (hostTag) REFERENCES host (tag));
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec("INSERT INTO probe VALUES (1, 'alpha')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec("INSERT INTO probe VALUES (2, 'beta')"); err == nil {
		t.Fatal("orphan non-PK FK should fail")
	}
	if _, err := s.DB().Exec("DELETE FROM host WHERE id = 1"); err == nil {
		t.Fatal("referenced parent delete should fail")
	}
}

func TestPutExperimentsBatch(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("batch")); err != nil {
		t.Fatal(err)
	}
	// An empty batch is a no-op.
	if err := s.PutExperiments(nil); err != nil {
		t.Fatal(err)
	}
	rows := make([]ExperimentRow, 40)
	for i := range rows {
		rows[i] = ExperimentRow{
			ExperimentName:    fmt.Sprintf("batch/e%04d", i),
			CampaignName:      "batch",
			ExperimentData:    "plan=[] injected=0/0",
			TerminationReason: "workload-end",
			Mechanism:         "",
			Cycles:            uint64(1000 + i),
			Iterations:        uint64(i),
			StateVector:       []byte{byte(i), 0xAB},
		}
	}
	// A parent reference within the batch resolves: rows insert in order.
	rows[7].ParentExperiment = "batch/e0003"
	if err := s.PutExperiments(rows); err != nil {
		t.Fatal(err)
	}
	got, err := s.Experiments("batch")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("experiments = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(got[i], rows[i]) {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], rows[i])
		}
	}
	// Constraint checking still applies to batched inserts.
	bad := []ExperimentRow{{
		ExperimentName:    "orphan/e0000",
		CampaignName:      "no-such-campaign",
		ExperimentData:    "plan=[] injected=0/0",
		TerminationReason: "workload-end",
	}}
	if err := s.PutExperiments(bad); err == nil {
		t.Fatal("batched insert with a dangling campaign FK should fail")
	}
}

// TestStoreRecorder: with a recorder attached, every campaign-path call is
// timed into a store.<Op> histogram with call/row counters; without one the
// store behaves identically.
func TestStoreRecorder(t *testing.T) {
	s := newStore(t)
	rec := obsv.New(obsv.Options{})
	s.SetRecorder(rec)
	if err := s.PutTargetSystem(sampleTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(sampleCampaign("rc")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCampaign("rc"); err != nil {
		t.Fatal(err)
	}
	rows := []ExperimentRow{
		{ExperimentName: "rc/e0000", CampaignName: "rc", TerminationReason: "workload-end"},
		{ExperimentName: "rc/e0001", CampaignName: "rc", TerminationReason: "detected"},
	}
	if err := s.PutExperiments(rows); err != nil {
		t.Fatal(err)
	}
	if err := s.PutExperiment(ExperimentRow{ExperimentName: "rc/e0002", CampaignName: "rc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExperimentNames("rc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Experiments("rc"); err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	hists := map[string]obsv.HistogramStats{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h
	}
	for name, wantCount := range map[string]int64{
		"store.PutCampaign":     1,
		"store.GetCampaign":     1,
		"store.PutExperiments":  1,
		"store.PutExperiment":   1,
		"store.ExperimentNames": 1,
		"store.Experiments":     1,
	} {
		if hists[name].Count != wantCount {
			t.Errorf("%s count = %d, want %d", name, hists[name].Count, wantCount)
		}
	}
	if snap.Counters["store.calls"] != 6 {
		t.Errorf("store.calls = %d", snap.Counters["store.calls"])
	}
	// Rows moved: 1 campaign put + 1 get + 2 batch + 1 single + 3 names + 3 reads.
	if snap.Counters["store.rows"] != 11 {
		t.Errorf("store.rows = %d", snap.Counters["store.rows"])
	}

	// An empty batch is a no-op and must not count as a call.
	if err := s.PutExperiments(nil); err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot().Counters["store.calls"] != 6 {
		t.Error("empty batch counted as a store call")
	}
}
