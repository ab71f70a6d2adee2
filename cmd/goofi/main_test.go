package main

import (
	"os"
	"path/filepath"
	"testing"

	"goofi/internal/core"
	"goofi/internal/dbase"
)

// dbPath returns a per-test database file path.
func dbPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "camp.db")
}

// TestCLIFullFlow exercises all four phases of the CLI against one database:
// configure → setup → run → analyze → trace → list.
func TestCLIFullFlow(t *testing.T) {
	db := dbPath(t)

	if err := run([]string{"configure", "-db", db, "-desc", "cli test target"}); err != nil {
		t.Fatalf("configure: %v", err)
	}
	if err := run([]string{"setup", "-db", db,
		"-campaign", "cli1", "-workload", "bubblesort",
		"-technique", "scifi", "-locations", "chain:internal.core",
		"-n", "8", "-seed", "4", "-tmin", "10", "-tmax", "1400"}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "cli1", "-quiet"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"analyze", "-db", db, "-campaign", "cli1", "-gen-sql", "-by-location", "5"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := run([]string{"trace", "-db", db, "-campaign", "cli1",
		"-experiment", "cli1/e0003", "-limit", "5"}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := run([]string{"list", "-db", db}); err != nil {
		t.Fatalf("list: %v", err)
	}

	// The database file persists everything, including the detail rerun
	// with its parent link.
	store, err := dbase.OpenStore(db)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments("cli1")
	if err != nil {
		t.Fatal(err)
	}
	// 1 ref + 8 experiments + 2 detail reruns (ref + e0003).
	if len(exps) != 11 {
		t.Fatalf("experiments = %d", len(exps))
	}
	row, err := store.GetExperiment("cli1/e0003" + core.DetailSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if row.ParentExperiment != "cli1/e0003" {
		t.Fatalf("parent = %q", row.ParentExperiment)
	}
	rows, err := store.AnalysisResults("cli1")
	if err != nil || len(rows) != 8 {
		t.Fatalf("analysis rows = %d, %v", len(rows), err)
	}
}

func TestCLISetupMerge(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	common := []string{"setup", "-db", db, "-workload", "bubblesort",
		"-technique", "scifi", "-n", "5", "-tmax", "1400"}
	if err := run(append(common, "-campaign", "m1", "-locations", "chain:internal.core")); err != nil {
		t.Fatal(err)
	}
	if err := run(append(common, "-campaign", "m2", "-locations", "chain:internal.icache")); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db, "-campaign", "both", "-merge", "m1,m2"}); err != nil {
		t.Fatal(err)
	}
	store, err := dbase.OpenStore(db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.GetCampaign("both")
	if err != nil {
		t.Fatal(err)
	}
	if c.NExperiments != 10 {
		t.Fatalf("merged n = %d", c.NExperiments)
	}
	// Merged campaigns run end-to-end.
	if err := run([]string{"run", "-db", db, "-campaign", "both", "-quiet"}); err != nil {
		t.Fatalf("run merged: %v", err)
	}
}

func TestCLISetupTriggered(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db,
		"-campaign", "trig", "-workload", "control",
		"-technique", "scifi-triggered", "-trigger", "branch:3",
		"-locations", "chain:internal.core", "-n", "3", "-tmax", "3000"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "trig", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIErrors(t *testing.T) {
	db := dbPath(t)
	cases := [][]string{
		{},
		{"frobnicate"},
		{"configure"},        // missing -db
		{"setup", "-db", db}, // missing campaign
		{"run", "-db", db, "-campaign", "nope"},
		{"analyze", "-db", db, "-campaign", "nope"},
		{"setup", "-db", db, "-campaign", "x", "-workload", "nope"},
		{"setup", "-db", db, "-campaign", "x", "-workload", "bubblesort", "-model", "zz"},
		{"setup", "-db", db, "-campaign", "x", "-workload", "bubblesort",
			"-locations", "mem:0x0-0x100"}, // scifi cannot reach memory
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// help succeeds.
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

// TestCLIChaosRun drives the fault-tolerance flags end to end: a chaos-
// wrapped campaign with nonzero error/panic/hang rates must run to
// completion, log every experiment, and classify cleanly afterwards.
func TestCLIChaosRun(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db,
		"-campaign", "chaos", "-workload", "bubblesort",
		"-technique", "scifi", "-locations", "chain:internal.core",
		"-n", "6", "-seed", "2", "-tmin", "10", "-tmax", "1400"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "chaos", "-quiet",
		"-retries", "10", "-retry-backoff", "200us", "-timeout", "500ms",
		"-chaos", "err=0.01,panic=0.003,hang=0.002,seed=5"}); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if err := run([]string{"analyze", "-db", db, "-campaign", "chaos"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	store, err := dbase.OpenStore(db)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := store.Experiments("chaos")
	if err != nil || len(exps) != 7 {
		t.Fatalf("experiments = %d, %v", len(exps), err)
	}
	// A malformed chaos spec is rejected before anything runs.
	if err := run([]string{"run", "-db", db, "-campaign", "chaos", "-quiet",
		"-chaos", "bogus=1"}); err == nil {
		t.Fatal("bad chaos spec should fail")
	}
}

func TestCLIDuplicateCampaignRejected(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	args := []string{"setup", "-db", db, "-campaign", "dup", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "2", "-tmax", "1400"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(args); err == nil {
		t.Fatal("duplicate setup should fail")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

func TestCLIInventoryCommands(t *testing.T) {
	if err := run([]string{"workloads"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"techniques"}); err != nil {
		t.Fatal(err)
	}
	db := dbPath(t)
	if err := run([]string{"locations", "-db", db}); err == nil {
		t.Fatal("locations before configure should fail")
	}
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"locations", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"locations", "-db", db, "-target", "nope"}); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestCLIDeleteCampaign(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db, "-campaign", "del", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "2", "-tmax", "1400"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "del", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"delete", "-db", db, "-campaign", "del"}); err != nil {
		t.Fatal(err)
	}
	store, err := dbase.OpenStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if camps, _ := store.Campaigns(); len(camps) != 0 {
		t.Fatalf("campaigns = %v", camps)
	}
	// The same name can be set up again after deletion.
	if err := run([]string{"setup", "-db", db, "-campaign", "del", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "1", "-tmax", "1400"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"delete", "-db", db, "-campaign", "ghost"}); err == nil {
		t.Fatal("deleting unknown campaign should fail")
	}
}

func TestCLIShowAndJSON(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "sh", "-workload", "bubblesort",
			"-locations", "chain:internal.core", "-n", "3", "-tmax", "1400"},
		{"run", "-db", db, "-campaign", "sh", "-quiet"},
		{"analyze", "-db", db, "-campaign", "sh", "-json"},
		{"show", "-db", db, "-experiment", "sh/e0001"},
		{"show", "-db", db, "-experiment", "sh/ref"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if err := run([]string{"show", "-db", db, "-experiment", "ghost"}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if err := run([]string{"show", "-db", db}); err == nil {
		t.Fatal("missing -experiment should fail")
	}
}
