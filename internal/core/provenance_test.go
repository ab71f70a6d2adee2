package core

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// TestProvenanceCausalChain is the acceptance scenario of provenance
// tracing: a chaos campaign over a WAL-backed store on a fault-injecting
// filesystem, with journaling on, must let a retried experiment's whole
// causal chain be reconstructed from the wide events — the plan draw, the
// chaos fault that felled attempt 0, the retry backoff, the successful
// attempt, and the WAL commit batch that made its row durable.
func TestProvenanceCausalChain(t *testing.T) {
	openRegistered := func(fsys vfs.FS) (*dbase.Store, *target.ThorTarget) {
		store, err := dbase.OpenStoreWALFS(filepath.Join(t.TempDir(), "campaign.db"), fsys,
			sqldb.WALOptions{SyncEvery: 1, CheckpointBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		thor := target.NewDefaultThorTarget()
		if err := RegisterTarget(store, thor, "provenance target"); err != nil {
			t.Fatal(err)
		}
		return store, thor
	}
	// A fault-free probe counts the filesystem ops that opening and
	// registration take, so the one scheduled transient fault below lands
	// inside the campaign's own row commits however many ops registration
	// costs.
	probe, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probeStore, _ := openRegistered(probe)
	setupOps := uint64(probe.Stats().Ops)
	probeStore.Close()
	fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{
		Schedule: vfs.Schedule{{Op: setupOps + 2, Kind: vfs.FaultWriteErr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.New(obsv.Options{Journal: true})
	fsys.SetRecorder(rec)
	store, thor := openRegistered(fsys)
	defer store.Close()
	if n := fsys.Stats().InjectedErrors; n != 0 {
		t.Fatalf("the scheduled storage fault fired during setup (%d faults)", n)
	}
	store.SetRecorder(rec)
	flaky := target.NewFlaky(thor, target.FlakyConfig{ErrorRate: 0.01, PanicRate: 0.002, Seed: 7})
	ops := target.NewMeasured(flaky, rec)

	c := chaosCampaign("prov-chain", 8)
	r := NewRunner(ops, store, c)
	r.Recorder = rec
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := fsys.Stats().InjectedErrors; n != 1 {
		t.Fatalf("campaign hit %d injected storage faults, want the 1 scheduled", n)
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
	if sum.Retries == 0 {
		t.Fatal("campaign exercised no retries; retune the chaos seed")
	}

	events := obsv.AttributeEvents(rec.Journal().Events())
	obsv.SortEvents(events)

	// Find a retried experiment through its retry-backoff event.
	retried := ""
	for _, ev := range events {
		if ev.Kind == obsv.EvRetry && ev.Experiment != "" {
			retried = ev.Experiment
			break
		}
	}
	if retried == "" {
		t.Fatal("no retry-backoff event despite retries in the summary")
	}

	// Collect the chain and check each causal link is present and ordered.
	var chain []obsv.WideEvent
	for _, ev := range events {
		if ev.Experiment == retried {
			chain = append(chain, ev)
		}
	}
	idxOf := func(kind string, pred func(obsv.WideEvent) bool) int {
		for i, ev := range chain {
			if ev.Kind == kind && (pred == nil || pred(ev)) {
				return i
			}
		}
		return -1
	}
	plan := idxOf(obsv.EvPlan, nil)
	failed := idxOf(obsv.EvAttempt, func(ev obsv.WideEvent) bool {
		return ev.Attempt == 0 && strings.Contains(ev.Detail, "outcome=err")
	})
	fault := idxOf(obsv.EvChaosError, func(ev obsv.WideEvent) bool { return ev.Attempt == 0 })
	retry := idxOf(obsv.EvRetry, nil)
	recovered := idxOf(obsv.EvAttempt, func(ev obsv.WideEvent) bool {
		return ev.Attempt > 0 && strings.Contains(ev.Detail, "outcome=ok")
	})
	durable := idxOf(obsv.EvRowDurable, nil)
	switch {
	case plan < 0 || failed < 0 || fault < 0 || retry < 0 || recovered < 0 || durable < 0:
		t.Fatalf("causal chain incomplete: plan=%d failedAttempt=%d chaosFault=%d retry=%d recoveredAttempt=%d rowDurable=%d\nchain: %+v",
			plan, failed, fault, retry, recovered, durable, chain)
	case !(plan < failed && retry < recovered && recovered < durable):
		t.Fatalf("causal chain out of order: plan=%d failedAttempt=%d retry=%d recoveredAttempt=%d rowDurable=%d",
			plan, failed, retry, recovered, durable)
	}

	// The row's WAL batch links to the exact group commit that held it.
	batch := obsv.EventBatch(chain[durable])
	if batch <= 0 {
		t.Fatalf("row-durable event carries no WAL batch: %+v", chain[durable])
	}
	committed := false
	for _, ev := range events {
		if ev.Kind == obsv.EvWALCommit && obsv.EventBatch(ev) == batch {
			committed = true
			break
		}
	}
	if !committed {
		t.Fatalf("no wal-commit event for batch %d", batch)
	}

	// Storage chaos left its marks in the same journal.
	storageFaults := 0
	for _, ev := range events {
		if ev.Kind == obsv.EvStorageFault {
			storageFaults++
		}
	}
	if storageFaults == 0 {
		t.Fatal("no storage-fault events despite the faulty filesystem")
	}

	// The timeline renderer reconstructs the same chain.
	var sb strings.Builder
	if err := obsv.FormatTimeline(&sb, rec.Journal().Events(), retried); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{obsv.EvPlan, obsv.EvRetry, obsv.EvChaosError,
		obsv.EvRowDurable, obsv.EvWALCommit, "outcome=ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline lacks %q:\n%s", want, out)
		}
	}
}

// TestProvenanceGoldenRows pins the observer effect away: a journaling
// chaos campaign logs experiment rows byte-identical to the same campaign
// with provenance off. Tracing adds rows, never perturbs them.
func TestProvenanceGoldenRows(t *testing.T) {
	cfg := target.FlakyConfig{ErrorRate: 0.01, PanicRate: 0.002, Seed: 7}
	run := func(rec *obsv.Recorder) []dbase.ExperimentRow {
		ops, store := newEnv(t)
		if rec != nil {
			store.SetRecorder(rec)
		}
		var tops target.Operations = target.NewFlaky(ops, cfg)
		if rec != nil {
			tops = target.NewMeasured(tops, rec)
		}
		c := chaosCampaign("prov-golden", 10)
		r := NewRunner(tops, store, c)
		r.Recorder = rec
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return campaignRows(t, store, c.Name)
	}
	rec := obsv.New(obsv.Options{Journal: true})
	plain, traced := run(nil), run(rec)
	if rec.Journal().Len() == 0 {
		t.Fatal("traced run journalled nothing")
	}
	if len(plain) != len(traced) {
		t.Fatalf("rows: plain %d, traced %d", len(plain), len(traced))
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i], traced[i]) {
			t.Fatalf("row %d differs with provenance on:\nplain:  %+v\ntraced: %+v", i, plain[i], traced[i])
		}
	}
}
