package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/obsv"
)

// obsvCampaign configures and defines a small scifi campaign, returning the
// database path.
func obsvCampaign(t *testing.T, name string, n int) string {
	t.Helper()
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db,
		"-campaign", name, "-workload", "bubblesort",
		"-technique", "scifi", "-locations", "chain:internal.core",
		"-n", fmt.Sprint(n), "-seed", "7", "-tmax", "1400"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCLIRunWithObservability is the acceptance check for the observability
// flags: goofi run -metrics-out -trace-out produces a Chrome-loadable trace
// and a metrics snapshot whose campaign-thread leaf phases account for
// (nearly all of, and never more than) the campaign wall-clock. goofi stats
// then renders it.
func TestCLIRunWithObservability(t *testing.T) {
	// 64 experiments make the campaign long enough that one GC pause cannot
	// sink the instrumented fraction below its bound on its own.
	db := obsvCampaign(t, "obs", 64)
	dir := filepath.Dir(db)
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	if err := run([]string{"run", "-db", db, "-campaign", "obs", "-quiet",
		"-metrics-out", metrics, "-trace-out", trace}); err != nil {
		t.Fatalf("run: %v", err)
	}

	mf, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := obsv.ParseSnapshot(mf)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.WallClockNs <= 0 {
		t.Fatal("no wall clock in snapshot")
	}
	// Store flushes run on the logging stage's own thread, overlapping the
	// experiments; every other leaf phase belongs to a campaign thread.
	sum := snap.PhaseSumNs()
	for _, p := range snap.Phases {
		if p.Phase == "store-flush" {
			sum -= p.TotalNs
		}
	}
	if sum <= 0 || sum > snap.WallClockNs {
		t.Fatalf("phase sum %d vs wall %d", sum, snap.WallClockNs)
	}
	// The tight phase-sum-vs-wall-clock bound is pinned in internal/core;
	// here allow headroom for coverage/race builds, which slow the untimed
	// glue between spans disproportionately.
	frac := float64(sum) / float64(snap.WallClockNs)
	t.Logf("instrumented fraction %.3f", frac)
	if frac < 0.60 {
		t.Errorf("instrumented fraction %.2f, want >= 0.60", frac)
	}
	if snap.Counters["experiments.completed"] != 64 {
		t.Fatalf("counters = %+v", snap.Counters)
	}

	// The trace file must be well-formed trace_event JSON with the
	// displayTimeUnit Chrome expects and at least one complete ("X") event.
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace: unit=%q events=%d", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}
	seen := map[string]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"reference", "obs/e0000", "inject", "workload"} {
		if !seen[want] {
			t.Errorf("trace missing %q events", want)
		}
	}

	// goofi stats renders the snapshot; a non-snapshot file is rejected.
	if err := run([]string{"stats", "-metrics", metrics}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := run([]string{"stats", "-metrics", trace}); err == nil {
		t.Fatal("stats accepted a trace file as a metrics snapshot")
	}
	if err := run([]string{"stats"}); err == nil {
		t.Fatal("stats without -metrics should fail")
	}
}

// TestCLIDebugServer starts the expvar/pprof server on an ephemeral port and
// reads the published "goofi" variable back over HTTP.
func TestCLIDebugServer(t *testing.T) {
	rec := obsv.New(obsv.Options{})
	rec.Count("probe", 3)
	addr, err := startDebugServer("127.0.0.1:0", rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"goofi"`) || !strings.Contains(string(body), `"probe"`) {
		t.Fatalf("expvar output missing goofi snapshot: %.200s", body)
	}
	// A second server (repeated run() calls in one process) must not panic on
	// the already-published expvar and must serve the newest recorder.
	rec2 := obsv.New(obsv.Options{})
	rec2.Count("probe2", 1)
	if _, err := startDebugServer("127.0.0.1:0", rec2, nil); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body2), `"probe2"`) {
		t.Fatal("expvar did not switch to the latest recorder")
	}
}

// TestCLIRunDebugAddr wires -debug-addr through a real run.
func TestCLIRunDebugAddr(t *testing.T) {
	db := obsvCampaign(t, "obsd", 8)
	if err := run([]string{"run", "-db", db, "-campaign", "obsd", "-quiet",
		"-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "obsd", "-quiet",
		"-debug-addr", "not-an-address"}); err == nil {
		t.Fatal("bad -debug-addr should fail")
	}
}
