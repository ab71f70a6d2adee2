package analysis

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// runCampaign executes a small campaign and returns its store.
func runCampaign(t *testing.T, c core.Campaign) *dbase.Store {
	t.Helper()
	ops := target.NewDefaultThorTarget()
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterTarget(store, ops, "test"); err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return store
}

func baseCampaign(name string, n int) core.Campaign {
	return core.Campaign{
		Name:           name,
		Workload:       workload.BubbleSort(),
		Technique:      core.TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   n,
		Seed:           3,
		InjectMinTime:  10,
		InjectMaxTime:  1400,
	}
}

func TestClassifyCampaign(t *testing.T) {
	store := runCampaign(t, baseCampaign("an1", 40))
	rep, err := Classify(store, "an1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 40 {
		t.Fatalf("total = %d", rep.Total)
	}
	sum := 0
	for _, v := range rep.Counts {
		sum += v
	}
	if sum != 40 {
		t.Fatalf("counts = %v", rep.Counts)
	}
	if rep.Effective+rep.NonEffective != 40 {
		t.Fatalf("effective %d + noneffective %d != 40", rep.Effective, rep.NonEffective)
	}
	// 40 random single bit-flips into registers must yield a mixture: at
	// least some non-effective faults, and some effect overall.
	if rep.NonEffective == 0 {
		t.Fatalf("no non-effective faults at all: %v", rep.Counts)
	}
	// Analysis rows are stored, one per experiment.
	rows, err := store.AnalysisResults("an1")
	if err != nil || len(rows) != 40 {
		t.Fatalf("analysis rows = %d, %v", len(rows), err)
	}
	// Re-running the analysis is idempotent.
	rep2, err := Classify(store, "an1")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Total != rep.Total || rep2.Counts[OutcomeDetected] != rep.Counts[OutcomeDetected] {
		t.Fatal("re-analysis changed the result")
	}
	// Detected experiments carry mechanisms.
	for _, row := range rows {
		if row.Outcome == OutcomeDetected && row.Mechanism == "" {
			t.Fatalf("detected without mechanism: %+v", row)
		}
	}
	if rep.Effective > 0 {
		if rep.Coverage < 0 || rep.Coverage > 1 {
			t.Fatalf("coverage = %f", rep.Coverage)
		}
		if rep.CI.Lo > rep.Coverage || rep.CI.Hi < rep.Coverage {
			t.Fatalf("CI %v does not bracket coverage %f", rep.CI, rep.Coverage)
		}
	}
}

// TestClassifyCommits pins what classification costs on a strict WAL store:
// a 64-experiment campaign stores its results in one batch, one commit,
// whether or not a DELETE replaces earlier results — never one commit per
// experiment or per statement.
func TestClassifyCommits(t *testing.T) {
	store, err := dbase.OpenStoreWAL(filepath.Join(t.TempDir(), "an.db"), sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ops := target.NewDefaultThorTarget()
	if err := core.RegisterTarget(store, ops, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewRunner(ops, store, baseCampaign("wal64", 64)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"first", "repeat"} {
		before := store.DB().WALStats().Fsyncs
		rep, err := Classify(store, "wal64")
		if err != nil {
			t.Fatal(err)
		}
		if fsyncs := store.DB().WALStats().Fsyncs - before; fsyncs != 1 {
			t.Fatalf("%s Classify of 64 experiments cost %d fsyncs, want 1", pass, fsyncs)
		}
		rows, err := store.AnalysisResults("wal64")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 64 || len(rows) != 64 {
			t.Fatalf("%s Classify: total %d, %d stored rows, want 64", pass, rep.Total, len(rows))
		}
	}
}

func TestClassifyMissingCampaign(t *testing.T) {
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Classify(store, "ghost"); err == nil {
		t.Fatal("missing campaign should fail")
	}
}

func TestReportString(t *testing.T) {
	store := runCampaign(t, baseCampaign("an2", 15))
	rep, err := Classify(store, "an2")
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, frag := range []string{"Effective errors", "Detected errors", "Escaped errors",
		"Latent errors", "Overwritten errors"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report missing %q:\n%s", frag, s)
		}
	}
}

func TestWilson(t *testing.T) {
	// Degenerate cases.
	if iv := Wilson(0, 0, 1.96); iv.Lo != 0 || iv.Hi != 0 {
		t.Fatalf("Wilson(0,0) = %v", iv)
	}
	// Known value: 8/10 at 95% is roughly [0.49, 0.94].
	iv := Wilson(8, 10, 1.96)
	if math.Abs(iv.Lo-0.49) > 0.02 || math.Abs(iv.Hi-0.943) > 0.02 {
		t.Fatalf("Wilson(8,10) = %+v", iv)
	}
	// Bounds stay in [0,1] at the extremes.
	if iv := Wilson(0, 5, 1.96); iv.Lo != 0 {
		t.Fatalf("Wilson(0,5) = %+v", iv)
	}
	if iv := Wilson(5, 5, 1.96); iv.Hi != 1 {
		t.Fatalf("Wilson(5,5) = %+v", iv)
	}
	// Monotone in n: wider for smaller samples.
	small := Wilson(5, 10, 1.96)
	large := Wilson(50, 100, 1.96)
	if (small.Hi - small.Lo) <= (large.Hi - large.Lo) {
		t.Fatal("interval should shrink with n")
	}
}

func TestGeneratedSQLMatchesNativeReport(t *testing.T) {
	store := runCampaign(t, baseCampaign("an3", 30))
	rep, err := Classify(store, "an3")
	if err != nil {
		t.Fatal(err)
	}
	// The generated script must parse and run against the store.
	script := GenerateSQL("an3")
	if err := store.DB().ExecScript(script); err != nil {
		t.Fatalf("generated SQL does not execute: %v\n%s", err, script)
	}
	// And its aggregates must equal the native computation (E9).
	outcomes, mechanisms, err := SQLAggregates(store, "an3")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range rep.Counts {
		if outcomes[k] != v {
			t.Errorf("outcome %s: SQL %d, native %d", k, outcomes[k], v)
		}
	}
	for k, v := range rep.PerMechanism {
		if mechanisms[k] != v {
			t.Errorf("mechanism %s: SQL %d, native %d", k, mechanisms[k], v)
		}
	}
	cov, err := CoverageViaSQL(store, "an3")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-rep.Coverage) > 1e-9 {
		t.Fatalf("SQL coverage %f, native %f", cov, rep.Coverage)
	}
}

func TestGenerateSQLEscapesQuotes(t *testing.T) {
	script := GenerateSQL("camp'ain")
	if !strings.Contains(script, "camp''ain") {
		t.Fatalf("script does not escape quotes:\n%s", script)
	}
}

func TestPropagationAnalysis(t *testing.T) {
	ops := target.NewDefaultThorTarget()
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterTarget(store, ops, "test"); err != nil {
		t.Fatal(err)
	}
	c := baseCampaign("an4", 6)
	c.DetailMode = true
	r := core.NewRunner(ops, store, c)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, err := store.GetExperiment("an4" + core.RefSuffix)
	if err != nil {
		t.Fatal(err)
	}
	refSV, err := core.DecodeStateVector(ref.StateVector)
	if err != nil {
		t.Fatal(err)
	}
	if len(refSV.Trace) == 0 {
		t.Fatal("detail-mode campaign logged no reference trace")
	}
	exps, err := store.Experiments("an4")
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for _, e := range exps {
		if e.ExperimentName == ref.ExperimentName {
			continue
		}
		sv, err := core.DecodeStateVector(e.StateVector)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ComparePropagation(refSV, sv)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Diverged {
			diverged++
			if pr.String() == "" {
				t.Fatal("empty report string")
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no experiment diverged from the reference trace")
	}
	// Identical traces do not diverge.
	pr, err := ComparePropagation(refSV, refSV)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Diverged || pr.DifferingSamples != 0 {
		t.Fatalf("self comparison = %+v", pr)
	}
	// Missing traces are an error.
	if _, err := ComparePropagation(&core.StateVector{}, refSV); err == nil {
		t.Fatal("missing trace should fail")
	}
}

func TestLocationBreakdown(t *testing.T) {
	store := runCampaign(t, baseCampaign("an-loc", 60))
	if _, err := Classify(store, "an-loc"); err != nil {
		t.Fatal(err)
	}
	ops := target.NewDefaultThorTarget()
	stats, err := LocationBreakdown(store, "an-loc", ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no location stats")
	}
	total := 0
	for _, st := range stats {
		total += st.Total
		if !strings.HasPrefix(st.Location, "internal.core/") {
			t.Fatalf("unexpected location %q", st.Location)
		}
		sum := 0
		for _, v := range st.Outcomes {
			sum += v
		}
		if sum != st.Total {
			t.Fatalf("outcome sum %d != total %d for %s", sum, st.Total, st.Location)
		}
	}
	if total != 60 {
		t.Fatalf("attributed %d of 60 experiments", total)
	}
	// Sorted by effective count descending.
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Effective() < stats[i].Effective() {
			t.Fatal("stats not sorted by effectiveness")
		}
	}
	tbl := FormatLocationTable(stats, 5)
	if !strings.Contains(tbl, "location") || !strings.Contains(tbl, "more locations") {
		t.Fatalf("table:\n%s", tbl)
	}
	full := FormatLocationTable(stats, 0)
	if strings.Contains(full, "more locations") {
		t.Fatal("full table should not truncate")
	}
}

func TestLocationBreakdownRequiresClassify(t *testing.T) {
	store := runCampaign(t, baseCampaign("an-loc2", 3))
	ops := target.NewDefaultThorTarget()
	if _, err := LocationBreakdown(store, "an-loc2", ops); err == nil {
		t.Fatal("breakdown without Classify should fail")
	}
}

func TestLocationBreakdownMemoryDomain(t *testing.T) {
	c := baseCampaign("an-loc3", 10)
	c.Technique = core.TechSWIFIPre
	c.LocationFilter = "mem:0x4000-0x4040"
	store := runCampaign(t, c)
	if _, err := Classify(store, "an-loc3"); err != nil {
		t.Fatal(err)
	}
	stats, err := LocationBreakdown(store, "an-loc3", target.NewDefaultThorTarget())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if !strings.HasPrefix(st.Location, "mem:0x4") {
			t.Fatalf("unexpected location %q", st.Location)
		}
	}
}

func TestClassifySimpleTargetCampaign(t *testing.T) {
	// The second target system's campaigns flow through the same analysis
	// phase: its state vectors have no scan chains, only result memory.
	ops := target.NewSimpleTarget()
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterTarget(store, ops, "accumulator machine"); err != nil {
		t.Fatal(err)
	}
	c := core.Campaign{
		Name:           "simple-an",
		Workload:       target.SimpleChecksumWorkload(),
		Technique:      core.TechSWIFIPre,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "mem:0x800-0x840",
		NExperiments:   30,
		Seed:           8,
	}
	if _, err := core.NewRunner(ops, store, c).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := Classify(store, "simple-an")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 30 {
		t.Fatalf("total = %d", rep.Total)
	}
	// Data faults on this machine either corrupt the checksum (escaped) or
	// hit the dead upper bits of the 16-bit words (overwritten); there is
	// nothing latent to observe and no EDM covers data.
	if rep.Counts[OutcomeEscaped] == 0 {
		t.Fatalf("no escaped errors: %v", rep.Counts)
	}
	if rep.Counts[OutcomeDetected] != 0 {
		t.Fatalf("data faults cannot be detected on this machine: %v", rep.Counts)
	}
}

// TestTaxonomyEdgeCases drives classifyOne through every branch with
// hand-built state vectors, independent of any simulator behaviour.
func TestTaxonomyEdgeCases(t *testing.T) {
	store, err := dbase.NewMemoryStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutTargetSystem(dbase.TargetSystem{TestCardName: "t", MemSize: 64, ROMSize: 4}); err != nil {
		t.Fatal(err)
	}
	if err := store.PutCampaign(dbase.CampaignRow{
		CampaignName: "tax", TestCardName: "t", Workload: "bubblesort",
		Technique: "scifi", FaultModel: "transient", LocationFilter: "x",
		NExperiments: 5,
	}); err != nil {
		t.Fatal(err)
	}
	mkSV := func(chainByte byte, memVal uint32, env uint32) []byte {
		sv := &core.StateVector{
			Chains: []core.ChainState{{Name: "c", Bits: 8, Data: []byte{chainByte}}},
			Memory: []core.MemWord{{Addr: 0x10, Value: memVal}},
			Env:    [][]uint32{{env}},
		}
		return sv.Encode()
	}
	put := func(name, reason, mech string, sv []byte) {
		t.Helper()
		if err := store.PutExperiment(dbase.ExperimentRow{
			ExperimentName: name, CampaignName: "tax",
			ExperimentData:    "plan=[] injected=0/0",
			TerminationReason: reason, Mechanism: mech, StateVector: sv,
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("tax/ref", "workload-end", "", mkSV(0xAA, 7, 3))
	put("tax/e0000", "detected", "watchdog", mkSV(0x00, 0, 0)) // detected
	put("tax/e0001", "timeout", "", mkSV(0xAA, 7, 3))          // timeliness escape
	put("tax/e0002", "workload-end", "", mkSV(0xAA, 9, 3))     // wrong memory -> escaped
	put("tax/e0003", "workload-end", "", mkSV(0xAA, 7, 4))     // wrong env -> escaped
	put("tax/e0004", "workload-end", "", mkSV(0xAB, 7, 3))     // chain diff -> latent
	put("tax/e0005", "workload-end", "", mkSV(0xAA, 7, 3))     // identical -> overwritten

	rep, err := Classify(store, "tax")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		OutcomeDetected:    1,
		OutcomeEscaped:     3,
		OutcomeLatent:      1,
		OutcomeOverwritten: 1,
	}
	for k, v := range want {
		if rep.Counts[k] != v {
			t.Errorf("%s = %d, want %d", k, rep.Counts[k], v)
		}
	}
	if rep.PerMechanism["watchdog"] != 1 {
		t.Errorf("mechanisms = %v", rep.PerMechanism)
	}
	if rep.Coverage != 0.25 { // 1 detected of 4 effective
		t.Errorf("coverage = %f", rep.Coverage)
	}
	// A reference run that itself timed out makes experiment timeouts
	// non-escaping (they match the reference); rebuild with that shape.
	if err := store.PutCampaign(dbase.CampaignRow{
		CampaignName: "tax2", TestCardName: "t", Workload: "control",
		Technique: "scifi", FaultModel: "transient", LocationFilter: "x",
		NExperiments: 1,
	}); err != nil {
		t.Fatal(err)
	}
	put2 := func(name, reason string, sv []byte) {
		t.Helper()
		if err := store.PutExperiment(dbase.ExperimentRow{
			ExperimentName: name, CampaignName: "tax2",
			ExperimentData:    "plan=[] injected=0/0",
			TerminationReason: reason, StateVector: sv,
		}); err != nil {
			t.Fatal(err)
		}
	}
	put2("tax2/ref", "timeout", mkSV(0xAA, 7, 3))
	put2("tax2/e0000", "timeout", mkSV(0xAA, 7, 3))
	rep2, err := Classify(store, "tax2")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Counts[OutcomeOverwritten] != 1 {
		t.Fatalf("matching-timeout outcome = %v", rep2.Counts)
	}
}

// TestClassifyMixedRows drives Classify over campaigns that mix ordinary
// outcomes with the robustness-layer row shapes the engine can log: watchdog
// hangs, tool-level failures (the retry budget exhausted), and detail-mode
// reruns linked to a parent. Each case pins how those rows enter — or stay
// out of — the §3.4 report.
func TestClassifyMixedRows(t *testing.T) {
	sv := func(chainByte byte, memVal uint32) []byte {
		v := &core.StateVector{
			Chains: []core.ChainState{{Name: "c", Bits: 8, Data: []byte{chainByte}}},
			Memory: []core.MemWord{{Addr: 0x10, Value: memVal}},
			Env:    [][]uint32{{1}},
		}
		return v.Encode()
	}
	refSV := sv(0xAA, 7)
	type row struct {
		name, reason, mech, parent string
		sv                         []byte
	}
	cases := []struct {
		label        string
		rows         []row
		wantTotal    int
		wantFailed   int
		wantCounts   map[string]int
		wantAnalysis int // stored AnalysisResult rows
	}{
		{
			label: "hang rows escape",
			rows: []row{
				{name: "e0000", reason: core.TermHang, sv: nil}, // hangs carry no usable state
				{name: "e0001", reason: "workload-end", sv: refSV},
			},
			wantTotal:  2,
			wantCounts: map[string]int{OutcomeEscaped: 1, OutcomeOverwritten: 1},
			// A hang must classify WITHOUT decoding its (empty) state vector.
			wantAnalysis: 2,
		},
		{
			label: "failed rows counted apart, excluded from Total",
			rows: []row{
				{name: "e0000", reason: core.TermFailed, sv: nil},
				{name: "e0001", reason: core.TermFailed, sv: nil},
				{name: "e0002", reason: "workload-end", sv: sv(0xAB, 7)},
			},
			wantTotal:    1,
			wantFailed:   2,
			wantCounts:   map[string]int{OutcomeLatent: 1},
			wantAnalysis: 1,
		},
		{
			label: "detail reruns skipped via parent link",
			rows: []row{
				{name: "e0000", reason: "workload-end", sv: sv(0xAA, 9)},
				{name: "e0000/detail", reason: "workload-end", parent: "e0000", sv: sv(0xAA, 9)},
				{name: "ref/detail", reason: "workload-end", parent: "ref", sv: refSV},
			},
			wantTotal:    1,
			wantCounts:   map[string]int{OutcomeEscaped: 1},
			wantAnalysis: 1,
		},
		{
			label: "full mixture",
			rows: []row{
				{name: "e0000", reason: "detected", mech: "access-violation", sv: sv(0, 0)},
				{name: "e0001", reason: core.TermHang, sv: nil},
				{name: "e0002", reason: core.TermFailed, sv: nil},
				{name: "e0003", reason: "workload-end", sv: refSV},
				{name: "e0003/detail", reason: "workload-end", parent: "e0003", sv: refSV},
			},
			wantTotal:  3,
			wantFailed: 1,
			wantCounts: map[string]int{
				OutcomeDetected: 1, OutcomeEscaped: 1, OutcomeOverwritten: 1,
			},
			wantAnalysis: 3,
		},
	}
	for i, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			store, err := dbase.NewMemoryStore()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.PutTargetSystem(dbase.TargetSystem{TestCardName: "t", MemSize: 64, ROMSize: 4}); err != nil {
				t.Fatal(err)
			}
			camp := fmt.Sprintf("mix%d", i)
			if err := store.PutCampaign(dbase.CampaignRow{
				CampaignName: camp, TestCardName: "t", Workload: "bubblesort",
				Technique: "scifi", FaultModel: "transient", LocationFilter: "x",
				NExperiments: len(tc.rows),
			}); err != nil {
				t.Fatal(err)
			}
			if err := store.PutExperiment(dbase.ExperimentRow{
				ExperimentName: camp + core.RefSuffix, CampaignName: camp,
				ExperimentData:    "plan=[] injected=0/0",
				TerminationReason: "workload-end", StateVector: refSV,
			}); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.rows {
				parent := r.parent
				if parent != "" {
					parent = camp + "/" + parent
				}
				if err := store.PutExperiment(dbase.ExperimentRow{
					ExperimentName: camp + "/" + r.name, CampaignName: camp,
					ParentExperiment: parent, ExperimentData: "plan=[] injected=0/0",
					TerminationReason: r.reason, Mechanism: r.mech, StateVector: r.sv,
				}); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := Classify(store, camp)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != tc.wantTotal {
				t.Errorf("Total = %d, want %d", rep.Total, tc.wantTotal)
			}
			if rep.Failed != tc.wantFailed {
				t.Errorf("Failed = %d, want %d", rep.Failed, tc.wantFailed)
			}
			for k, v := range tc.wantCounts {
				if rep.Counts[k] != v {
					t.Errorf("Counts[%s] = %d, want %d", k, rep.Counts[k], v)
				}
			}
			sum := 0
			for _, v := range rep.Counts {
				sum += v
			}
			if sum != tc.wantTotal {
				t.Errorf("counts sum %d != Total %d: %v", sum, tc.wantTotal, rep.Counts)
			}
			rows, err := store.AnalysisResults(camp)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != tc.wantAnalysis {
				t.Errorf("stored analysis rows = %d, want %d", len(rows), tc.wantAnalysis)
			}
			for _, r := range rows {
				if strings.HasSuffix(r.ExperimentName, core.DetailSuffix) ||
					strings.HasSuffix(r.ExperimentName, core.RefSuffix) {
					t.Errorf("special row classified: %q", r.ExperimentName)
				}
			}
		})
	}
}
