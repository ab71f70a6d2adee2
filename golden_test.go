package goofi

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/dbase"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenCampaign is an end-to-end regression net: a fixed-seed campaign
// driven entirely through the public facade must reproduce the exact
// classified outcome table checked into testdata/golden_campaign.txt. Any
// drift in the simulator, fault planner, scan datapath, store or classifier
// shows up as a diff here; regenerate deliberately with `go test -run
// TestGoldenCampaign -update` and review the change like code.
func TestGoldenCampaign(t *testing.T) {
	ops := NewThorTarget()
	db, err := NewMemoryDatabase()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterTarget(db, ops, "golden test target"); err != nil {
		t.Fatal(err)
	}
	c := Campaign{
		Name:           "golden",
		Workload:       MustWorkload("bubblesort"),
		Technique:      TechSCIFI,
		Model:          Model{Kind: Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   12,
		Seed:           3,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}
	sum, err := RunCampaign(context.Background(), ops, db, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != c.NExperiments {
		t.Fatalf("completed = %d", sum.Completed)
	}
	if _, err := Analyze(db, "golden"); err != nil {
		t.Fatal(err)
	}

	outcomes := map[string]dbase.AnalysisRow{}
	arows, err := db.AnalysisResults("golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range arows {
		outcomes[r.ExperimentName] = r
	}
	rows, err := db.Experiments("golden")
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	sb.WriteString("# experiment | termination | mechanism | cycles | iterations | outcome\n")
	for _, row := range rows {
		outcome := "-"
		if a, ok := outcomes[row.ExperimentName]; ok {
			outcome = a.Outcome
		}
		mech := row.Mechanism
		if mech == "" {
			mech = "-"
		}
		fmt.Fprintf(&sb, "%s | %s | %s | %d | %d | %s\n",
			row.ExperimentName, row.TerminationReason, mech, row.Cycles, row.Iterations, outcome)
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "golden_campaign.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("campaign outcome table drifted from %s.\ngot:\n%s\nwant:\n%s\n"+
			"If the change is intentional, regenerate with -update and review the diff.",
			goldenPath, got, want)
	}
}

// TestGoldenForkedCampaign pins the checkpoint-forking identity contract
// end-to-end through the public facade: the same fixed-seed campaign run by
// the plain engine, the forked engine, and the forked engine with 4 workers
// must log byte-identical experiment rows — the table below digests every
// row's StateVector encoding — and the table itself must match
// testdata/golden_forked_campaign.txt. Any divergence between the three
// engines fails directly; drift of all three together fails against the
// golden file.
func TestGoldenForkedCampaign(t *testing.T) {
	base := Campaign{
		Name:           "golden-fork",
		Workload:       MustWorkload("bubblesort"),
		Technique:      TechSCIFI,
		Model:          Model{Kind: Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   12,
		Seed:           3,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}
	run := func(fork bool, workers int) string {
		t.Helper()
		ops := NewThorTarget()
		db, err := NewMemoryDatabase()
		if err != nil {
			t.Fatal(err)
		}
		if err := RegisterTarget(db, ops, "golden test target"); err != nil {
			t.Fatal(err)
		}
		c := base
		c.Fork = fork
		c.Workers = workers
		r := NewRunner(ops, db, c)
		r.Factory = ThorTargetFactory()
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed != c.NExperiments {
			t.Fatalf("completed = %d", sum.Completed)
		}
		rows, err := db.Experiments(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("# experiment | termination | mechanism | cycles | iterations | statevector-sha256\n")
		for _, row := range rows {
			mech := row.Mechanism
			if mech == "" {
				mech = "-"
			}
			fmt.Fprintf(&sb, "%s | %s | %s | %d | %d | %x\n",
				row.ExperimentName, row.TerminationReason, mech, row.Cycles, row.Iterations,
				sha256.Sum256(row.StateVector))
		}
		return sb.String()
	}

	plain := run(false, 1)
	if forked := run(true, 1); forked != plain {
		t.Errorf("forked sequential run diverged from the plain engine.\nplain:\n%s\nforked:\n%s", plain, forked)
	}
	if forkedPar := run(true, 4); forkedPar != plain {
		t.Errorf("forked 4-worker run diverged from the plain engine.\nplain:\n%s\nforked:\n%s", plain, forkedPar)
	}

	goldenPath := filepath.Join("testdata", "golden_forked_campaign.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(plain), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if plain != string(want) {
		t.Errorf("campaign state table drifted from %s.\ngot:\n%s\nwant:\n%s\n"+
			"If the change is intentional, regenerate with -update and review the diff.",
			goldenPath, plain, want)
	}
}
