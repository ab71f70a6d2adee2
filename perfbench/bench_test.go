package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyShapes are the benchmark's workloads at test size.
var tinyShapes = map[string]campaignShape{
	"scifi-pool": {n: 16, workers: 2, plainN: 16, build: scifiCampaign(16)},
	"fork-late":  {n: 8, plainN: 4, build: forkLateCampaign(8)},
	"wal-seq":    {n: 8, wal: true, plainN: 8, build: scifiCampaign(8)},
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, d: 50 * time.Millisecond, trace: trace, tmp: t.TempDir(),
		campaign: tinyShapes[workload], minCampaigns: 3,
		service: serviceShape{clients: 2, n: 6, concurrency: 2, setupReps: 2},
	}
}

// tracedCampaign runs one campaign of shape under the wrappers.
func tracedCampaign(t *testing.T, shape campaignShape, seed int64) (*campaignRunner, *profile, []Span) {
	t.Helper()
	cr := &campaignRunner{shape: shape, seeds: []int64{seed}, dir: t.TempDir(), digests: newDigestBook()}
	prof := newProfile(1)
	if _, err := cr.one(NewTracer(), prof); err != nil {
		t.Fatal(err)
	}
	return cr, prof, prof.kept
}

// TestWrappersForwardCapabilities: fork-late under the wrappers restores
// checkpoints (the wrapper forwards CheckpointStore through Unwrap) and logs
// the same rows as the unwrapped engine.
func TestWrappersForwardCapabilities(t *testing.T) {
	shape := tinyShapes["fork-late"]
	cr, prof, _ := tracedCampaign(t, shape, 5)
	m := prof.metrics()
	if m["thor.restore_hit_ratio"] <= 0 {
		t.Fatalf("thor.restore_hit_ratio = %v, want > 0", m["thor.restore_hit_ratio"])
	}
	if m["thor.prefix_skipped_ratio"] < 0.5 {
		t.Fatalf("thor.prefix_skipped_ratio = %v: restores skipped little of the prefix", m["thor.prefix_skipped_ratio"])
	}
	// A second, unwrapped campaign of the same seed must reproduce the digest.
	if _, err := cr.one(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := cr.digests.checkAgainstPlain(shape.build, shape.plainN); err != nil {
		t.Fatal(err)
	}
}

// TestSeederIDsCoverExperiments: the runner itself tells the target wrapper
// every (experiment, attempt), in the pool engine too.
func TestSeederIDsCoverExperiments(t *testing.T) {
	shape := tinyShapes["scifi-pool"]
	_, _, spans := tracedCampaign(t, shape, 7)
	seen := map[int]int{}
	lanes := map[int]bool{}
	for _, s := range spans {
		if s.Layer == layerCore && (s.Name == spanExperiment || s.Name == spanReference) {
			seen[s.Exp]++
			lanes[s.Lane] = true
			if s.Attempt != 0 {
				t.Errorf("experiment %d: attempt %d, want 0", s.Exp, s.Attempt)
			}
		}
	}
	for i := -1; i < shape.n; i++ {
		if seen[i] != 1 {
			t.Errorf("experiment %d has %d attempt spans, want 1", i, seen[i])
		}
	}
	if len(seen) != shape.n+1 {
		t.Errorf("attempt spans for %d experiments, want %d", len(seen), shape.n+1)
	}
	if !lanes[1] || !lanes[2] {
		t.Errorf("attempts ran on lanes %v, want worker lanes 1 and 2", lanes)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

// TestSelfTimesSumToWall: nested and sibling spans, a gap, and lane 0's
// explicit window; self time plus unattributed equals wall on every lane.
func TestSelfTimesSumToWall(t *testing.T) {
	spans := []Span{
		{Lane: 0, Layer: layerCore, Start: 10, End: 50},
		{Lane: 0, Layer: layerThor, Start: 15, End: 25},
		{Lane: 0, Layer: layerScan, Start: 30, End: 35},
		{Lane: 0, Layer: layerDbase, Start: 60, End: 70},
		{Lane: 1, Layer: layerThor, Start: 5, End: 8},
		{Lane: 1, Layer: layerThor, Start: 9, End: 12},
	}
	lt := selfTimes(spans, 0, 100)
	want0 := map[string]int64{layerCore: 25, layerThor: 10, layerScan: 5, layerDbase: 10}
	for l, v := range want0 {
		if lt[0].self[l] != v {
			t.Errorf("lane 0 %s self = %d, want %d", l, lt[0].self[l], v)
		}
	}
	if lt[0].wall != 100 || lt[0].unattributed != 50 {
		t.Errorf("lane 0 wall %d unattributed %d, want 100 and 50", lt[0].wall, lt[0].unattributed)
	}
	if lt[1].wall != 7 || lt[1].unattributed != 1 || lt[1].self[layerThor] != 6 {
		t.Errorf("lane 1 = %+v", *lt[1])
	}
}

// TestTracedProfileAddsUp: on a real traced WAL campaign the self-time table
// sums to lane wall-clock, file I/O lands under lane 0, and every fsync is
// accounted.
func TestTracedProfileAddsUp(t *testing.T) {
	_, prof, _ := tracedCampaign(t, tinyShapes["wal-seq"], 9)
	for lane, lt := range prof.lanes {
		var sum int64
		for _, ns := range lt.self {
			sum += ns
		}
		if sum+lt.unattributed != lt.wall {
			t.Errorf("lane %d: self %d + unattributed %d != wall %d", lane, sum, lt.unattributed, lt.wall)
		}
	}
	if prof.lanes[0].self[layerVFS] == 0 {
		t.Error("no file I/O attributed under lane-0 calls")
	}
	if m := prof.metrics(); m["vfs.sync_calls_per_exp"] < 1 {
		t.Errorf("vfs.sync_calls_per_exp = %v, want >= 1 with SyncEvery=1", m["vfs.sync_calls_per_exp"])
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at tiny N and
// checks the oracle passes and every metric of BENCHMARK.json is reported.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, trace)
			res, prof, err := measure(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: %+v", w.Name, trace, res)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			mechanism(t, w.Name, res.Metrics)
			if len(prof.kept) == 0 {
				t.Errorf("%s: no spans kept for the trace export", w.Name)
			}
		}
	}
}

// mechanism checks that each workload exercises what it exists for.
func mechanism(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "fork-late":
		if v("thor.restore_hit_ratio") <= 0 || v("vfs.sync_calls_per_exp") != 0 {
			t.Errorf("fork-late: restore_hit_ratio %v, sync_calls %v", v("thor.restore_hit_ratio"), v("vfs.sync_calls_per_exp"))
		}
	case "scifi-pool":
		if v("vfs.sync_calls_per_exp") != 0 || v("core.lane_busy_ratio.lane2") <= 0 {
			t.Errorf("scifi-pool: sync_calls %v, lane2 busy %v", v("vfs.sync_calls_per_exp"), v("core.lane_busy_ratio.lane2"))
		}
	case "wal-seq":
		if v("vfs.sync_calls_per_exp") < 1 {
			t.Errorf("wal-seq: sync_calls %v, want >= 1", v("vfs.sync_calls_per_exp"))
		}
	case "service-mix":
		if v("service.submit_p50_ms") <= 0 || v("vfs.creates_per_campaign") <= 0 {
			t.Errorf("service-mix: submit %v, creates %v", v("service.submit_p50_ms"), v("vfs.creates_per_campaign"))
		}
	}
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json names exactly the metrics
// and workloads the program produces, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	s := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program has %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s unit %q, program says %q", kind, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEndUnits)
	check("per_layer", s.PerLayer, perLayerUnits)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, ok := campaignShapes[w.Name]; !ok && w.Name != "service-mix" {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	if len(names) != len(campaignShapes)+1 {
		t.Errorf("BENCHMARK.json workloads %s, program has %d", strings.Join(names, ","), len(campaignShapes)+1)
	}
}
