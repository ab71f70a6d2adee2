package obsv

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 2000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	s := h.Stats("x")
	if s.MinNs != 100 || s.MaxNs != 1000 {
		t.Fatalf("min=%d max=%d", s.MinNs, s.MaxNs)
	}
	// Power-of-two buckets: the p50 estimate must land within a factor of
	// two of the true median (300) and inside [min, max].
	p50 := h.Quantile(0.5)
	if p50 < 100 || p50 > 1000 {
		t.Fatalf("p50=%d outside observed range", p50)
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("p100=%d, want clamp to max", h.Quantile(1))
	}
	if h.Quantile(0) < 100 {
		t.Fatalf("p0=%d, want clamp to min", h.Quantile(0))
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5) // clamped to 0
	s := h.Stats("z")
	if s.Count != 2 || s.MinNs != 0 || s.MaxNs != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if h.Quantile(0.99) != 0 {
		t.Fatalf("q=%d", h.Quantile(0.99))
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge identity")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity")
	}
}

// TestNilRecorderSafe proves the whole disabled surface no-ops.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	sp := r.Begin(PhaseInit, 0)
	sp.End()
	r.BeginIn(PhaseScanIn, TraceContext{Experiment: "c/e0001", TID: 1}).End()
	r.Count("c", 1)
	r.SetGauge("g", 2)
	r.Observe("h", time.Millisecond)
	r.ObserveSince("h", time.Now())
	r.SetWallClock(time.Second)
	if r.PhaseTotal(PhaseInit) != 0 || r.Registry() != nil {
		t.Fatal("nil recorder leaked state")
	}
	if got := r.Snapshot(); got.WallClockNs != 0 || len(got.Phases) != 0 {
		t.Fatalf("nil snapshot = %+v", got)
	}
	if r.Journal().Events() != nil {
		t.Fatal("nil recorder journalled events")
	}
}

// TestDisabledPathZeroAlloc pins the acceptance criterion that a nil
// recorder costs zero allocations on the hot loop.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := r.Begin(PhaseScanIn, 0)
		sp.End()
		r.Count("x", 1)
		r.BeginIn(PhaseScanOut, TraceContext{Experiment: "c/e0001", TID: 1}).End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op", allocs)
	}
	// The provenance journal keeps the invariant: no journal (or no
	// recorder at all) means emitting wide events costs nothing — the hooks
	// guard their fmt.Sprintf detail building behind Enabled().
	for _, rec := range []*Recorder{nil, New(Options{})} {
		tc := TraceContext{Rec: rec, Campaign: "c", Experiment: "c/e0001"}
		allocs = testing.AllocsPerRun(100, func() {
			if tc.Enabled() {
				tc.Emit(EvPlan, "plan=never-built")
			}
			rec.Journal().Emit(WideEvent{Kind: EvWALCommit})
		})
		if allocs != 0 {
			t.Fatalf("disabled journal path (rec=%v) allocates %.1f per op", rec, allocs)
		}
	}
}

// TestEnabledMetricsNoTraceZeroAlloc: with metrics on but tracing off, leaf
// spans still avoid allocation (value Span, atomic histogram), and a
// provenance journal without Options.Trace receives no phase events.
func TestEnabledMetricsNoTraceZeroAlloc(t *testing.T) {
	tc := TraceContext{Campaign: "c", Experiment: "c/e0001", TID: 1}
	for _, o := range []Options{{}, {Journal: true}} {
		r := New(o)
		allocs := testing.AllocsPerRun(100, func() {
			sp := r.Begin(PhaseScanIn, 0)
			sp.End()
			r.BeginIn(PhaseScanOut, tc).End()
		})
		if allocs != 0 {
			t.Fatalf("metrics-only span (%+v) allocates %.1f per op", o, allocs)
		}
		if n := r.Journal().Len(); n != 0 {
			t.Fatalf("journal without Options.Trace holds %d phase events", n)
		}
	}
}

// TestRecorderPhasesAndTrace: with Options.Trace every leaf-phase span is
// journalled as an EvPhase event — attributed to the attempt BeginIn names,
// to none for Begin — and ChromeTrace renders it as a phase slice.
func TestRecorderPhasesAndTrace(t *testing.T) {
	r := New(Options{Trace: true})
	if r.journal.capacity != DefaultTraceCap {
		t.Fatalf("trace journal capacity = %d, want %d", r.journal.capacity, DefaultTraceCap)
	}
	sp := r.Begin(PhaseWorkload, 2)
	time.Sleep(time.Millisecond)
	sp.End()
	r.BeginIn(PhaseScanIn, TraceContext{Rec: New(Options{}), Campaign: "exp", Experiment: "exp/e0001", Attempt: 1, TID: 3}).End()
	if r.PhaseTotal(PhaseWorkload) < int64(time.Millisecond) {
		t.Fatalf("workload total = %d", r.PhaseTotal(PhaseWorkload))
	}
	if r.phases[PhaseScanIn].Count() != 1 {
		t.Fatal("BeginIn must record into its receiver, not the context's recorder")
	}
	events := r.Journal().Events()
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	wl, si := events[0], events[1]
	if wl.Kind != EvPhase || wl.Detail != "workload" || wl.TID != 2 || wl.Experiment != "" ||
		wl.DurNs < int64(time.Millisecond) {
		t.Fatalf("workload event = %+v", wl)
	}
	if si.Kind != EvPhase || si.Detail != "scan-in" || si.TID != 3 ||
		si.Experiment != "exp/e0001" || si.Attempt != 1 || si.Campaign != "exp" {
		t.Fatalf("scan-in event = %+v", si)
	}

	tf := ChromeTrace(events)
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("chrome events = %+v", tf.TraceEvents)
	}
	if e := tf.TraceEvents[0]; e.Name != "workload" || e.Cat != EvPhase || e.Ph != "X" || e.Tid != 2 || e.Dur < 1000 {
		t.Fatalf("workload slice = %+v", e)
	}
	if e := tf.TraceEvents[1]; e.Name != "scan-in" || e.Tid != 3 {
		t.Fatalf("scan-in slice = %+v", e)
	}
}

// TestTraceCapDrops: past its capacity the trace journal keeps the newest
// phase events and counts the rest; metrics keep counting regardless.
func TestTraceCapDrops(t *testing.T) {
	r := New(Options{Trace: true})
	r.journal = NewJournal(2)
	for _, p := range []Phase{PhaseInit, PhaseInit, PhaseInit, PhasePlan, PhaseWorkload} {
		r.Begin(p, 0).End()
	}
	events := r.Journal().Events()
	if len(events) != 2 || r.Journal().Dropped() != 3 {
		t.Fatalf("buffered=%d dropped=%d", len(events), r.Journal().Dropped())
	}
	if events[0].Detail != "plan" || events[1].Detail != "workload" {
		t.Fatalf("kept %+v, want the newest two", events)
	}
	if s := r.Snapshot(); s.TraceDropped != 3 {
		t.Fatalf("snapshot dropped = %d", s.TraceDropped)
	}
	if r.phases[PhaseInit].Count() != 3 {
		t.Fatalf("phase count = %d", r.phases[PhaseInit].Count())
	}
}

// TestJournalDropsExported: a journal-only recorder (the service's kind)
// that overflows reports its drops in the snapshot and on /metrics.
func TestJournalDropsExported(t *testing.T) {
	r := New(Options{Journal: true})
	r.journal = NewJournal(2)
	for i := 0; i < 5; i++ {
		r.Journal().Emit(WideEvent{Kind: EvPlan})
	}
	s := r.Snapshot()
	if s.TraceDropped != 3 {
		t.Fatalf("snapshot dropped = %d, want 3", s.TraceDropped)
	}
	var buf bytes.Buffer
	if err := WritePrometheusMulti(&buf, map[string]Snapshot{"t/c": s}); err != nil {
		t.Fatal(err)
	}
	if want := `goofi_trace_events_dropped_total{campaign="t/c"} 3`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := New(Options{})
	r.Begin(PhaseFlush, 0).End()
	r.Count("experiments.completed", 7)
	r.SetGauge("workers", 4)
	r.Observe("store.PutExperiment", 250*time.Microsecond)
	r.SetWallClock(3 * time.Second)

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.WallClockNs != int64(3*time.Second) {
		t.Fatalf("wall = %d", s.WallClockNs)
	}
	if s.Counters["experiments.completed"] != 7 || s.Gauges["workers"] != 4 {
		t.Fatalf("scalars = %+v %+v", s.Counters, s.Gauges)
	}
	if _, ok := s.Gauges["campaign.wall_ns"]; ok {
		t.Fatal("wall gauge should be folded into WallClockNs")
	}
	if len(s.Phases) != int(NumPhases) {
		t.Fatalf("phases = %d", len(s.Phases))
	}
	found := false
	for _, h := range s.Histograms {
		if h.Name == "store.PutExperiment" && h.Count == 1 {
			found = true
		}
		if strings.HasPrefix(h.Name, "phase.") {
			t.Fatalf("phase histogram %q leaked into Histograms", h.Name)
		}
	}
	if !found {
		t.Fatal("store histogram missing from snapshot")
	}
	if s.PhaseSumNs() <= 0 {
		t.Fatalf("phase sum = %d", s.PhaseSumNs())
	}

	if _, err := ParseSnapshot(strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed snapshot should fail to parse")
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := New(Options{})
	sp := r.Begin(PhaseWorkload, 0)
	time.Sleep(200 * time.Microsecond)
	sp.End()
	r.Count("experiments.completed", 1)
	r.Observe("store.Save", 2*time.Millisecond)
	r.SetWallClock(time.Millisecond)

	var buf bytes.Buffer
	r.Snapshot().Format(&buf)
	out := buf.String()
	for _, want := range []string{"campaign wall-clock", "workload", "store.Save", "experiments.completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted stats missing %q:\n%s", want, out)
		}
	}
	// Phases with zero observations are suppressed from the table.
	if strings.Contains(out, "retry-backoff") {
		t.Fatalf("empty phase rendered:\n%s", out)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseScanIn.String() != "scan-in" || Phase(200).String() != "unknown" {
		t.Fatal("phase names")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		500:           "500ns",
		1500:          "1.5µs",
		2_500_000:     "2.50ms",
		3_000_000_000: "3.00s",
	}
	for ns, want := range cases {
		if got := fmtDur(ns); got != want {
			t.Errorf("fmtDur(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Stats("c")
	if s.MinNs != 0 || s.MaxNs != 3999 {
		t.Fatalf("min=%d max=%d", s.MinNs, s.MaxNs)
	}
}
