package obsv

import (
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestJournalRing: the journal assigns monotonically increasing sequence
// numbers, returns events in append order, and past its capacity overwrites
// the oldest event while counting the loss.
func TestJournalRing(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Emit(WideEvent{Kind: EvPlan, Index: i})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", j.Dropped())
	}
	events := j.Events()
	for i, ev := range events {
		if want := i + 2; ev.Index != want {
			t.Fatalf("event %d has Index %d, want %d (oldest overwritten first)", i, ev.Index, want)
		}
		if i > 0 && events[i].Seq <= events[i-1].Seq {
			t.Fatalf("Seq not increasing: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if events[0].TimeNs == 0 {
		t.Fatal("Emit did not stamp TimeNs")
	}
}

// TestJournalLazyRing: a journal allocates nothing until events arrive,
// grows by appending up to its capacity, then wraps as a ring that keeps the
// newest events in Seq order and counts every overwrite.
func TestJournalLazyRing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := NewJournal(0)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("NewJournal(0) allocated %d bytes up front", grew)
	}
	if j.Len() != 0 || len(j.Events()) != 0 {
		t.Fatal("fresh journal is not empty")
	}

	const capacity = 5
	j = NewJournal(capacity)
	for n := 1; n <= 12; n++ {
		j.Emit(WideEvent{Kind: EvPlan})
		first := max(1, n-capacity+1)
		events := j.Events()
		if len(events) != n-first+1 || j.Len() != len(events) {
			t.Fatalf("after %d events: Len %d, Events %d, want %d", n, j.Len(), len(events), n-first+1)
		}
		for i, ev := range events {
			if want := int64(first + i); ev.Seq != want {
				t.Fatalf("after %d events: event %d has Seq %d, want %d", n, i, ev.Seq, want)
			}
		}
		if want := int64(max(0, n-capacity)); j.Dropped() != want {
			t.Fatalf("after %d events: Dropped = %d, want %d", n, j.Dropped(), want)
		}
		// Events hands out a copy; scribbling on it must not reach the ring.
		events[0].Seq = -1
		if j.Events()[0].Seq != int64(first) {
			t.Fatalf("after %d events: Events shares the ring", n)
		}
	}
}

// TestJournalNilSafe: every method of a nil journal is a no-op, matching the
// nil-recorder contract of the rest of the package.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit(WideEvent{Kind: EvPlan})
	if j.Events() != nil || j.Len() != 0 || j.Dropped() != 0 {
		t.Fatal("nil journal is not inert")
	}
}

// TestRecorderJournalOption: the journal exists only when asked for, and a
// nil recorder reports none.
func TestRecorderJournalOption(t *testing.T) {
	if New(Options{}).Journal() != nil {
		t.Fatal("recorder without Journal option has a journal")
	}
	if New(Options{Journal: true}).Journal() == nil {
		t.Fatal("recorder with Journal option has no journal")
	}
	var r *Recorder
	if r.Journal() != nil {
		t.Fatal("nil recorder has a journal")
	}
}

// TestTraceContext: an enabled context stamps its identity onto emitted
// events; a disabled one (no recorder, or recorder without journal) is
// inert.
func TestTraceContext(t *testing.T) {
	rec := New(Options{Journal: true})
	tc := TraceContext{Rec: rec, Campaign: "c1", Shard: 2, Experiment: "c1/e0001",
		Index: 1, Attempt: 3, TID: 4}
	if !tc.Enabled() {
		t.Fatal("context with journaling recorder not enabled")
	}
	tc.Emit(EvInject, "domain=scan injections=2")
	start := time.Now().Add(-time.Millisecond)
	tc.EmitSpan(EvAttempt, "outcome=ok", start)

	events := rec.Journal().Events()
	if len(events) != 2 {
		t.Fatalf("journal has %d events, want 2", len(events))
	}
	ev := events[0]
	if ev.Kind != EvInject || ev.Campaign != "c1" || ev.Shard != 2 ||
		ev.Experiment != "c1/e0001" || ev.Index != 1 || ev.Attempt != 3 || ev.TID != 4 {
		t.Fatalf("emitted event lost context: %+v", ev)
	}
	if sp := events[1]; sp.DurNs < int64(time.Millisecond) || sp.TimeNs != start.UnixNano() {
		t.Fatalf("span event time/dur wrong: %+v", sp)
	}

	for _, tc := range []TraceContext{{}, {Rec: New(Options{})}} {
		if tc.Enabled() {
			t.Fatalf("context %+v should be disabled", tc)
		}
		tc.Emit(EvPlan, "x") // must not panic
	}
}

// TestSortEvents: causal order is wall-clock time with emission sequence
// breaking ties.
func TestSortEvents(t *testing.T) {
	events := []WideEvent{
		{Seq: 3, TimeNs: 20},
		{Seq: 2, TimeNs: 10},
		{Seq: 1, TimeNs: 10},
	}
	SortEvents(events)
	if events[0].Seq != 1 || events[1].Seq != 2 || events[2].Seq != 3 {
		t.Fatalf("sorted order wrong: %+v", events)
	}
}

// TestAttributeEvents: unattributed sub-experiment events inherit the
// experiment of the attempt window they landed in; overlapping windows
// resolve to the latest-starting one; events outside every window stay
// unattributed.
func TestAttributeEvents(t *testing.T) {
	events := []WideEvent{
		{Seq: 1, TimeNs: 100, DurNs: 100, Kind: EvAttempt, Experiment: "c/e0001", Index: 1, Attempt: 0},
		{Seq: 2, TimeNs: 150, DurNs: 100, Kind: EvAttempt, Experiment: "c/e0002", Index: 2, Attempt: 1},
		{Seq: 3, TimeNs: 120, Kind: EvStorageFault, TID: StorageTID},     // only e0001's window
		{Seq: 4, TimeNs: 180, Kind: EvWALCommit, TID: WALCommitTID},      // both; latest start wins
		{Seq: 5, TimeNs: 400, Kind: EvStorageFault, TID: StorageTID},     // no window
		{Seq: 6, TimeNs: 130, Kind: EvRowDurable, Experiment: "c/e0009"}, // already attributed
	}
	AttributeEvents(events)
	if got := events[2].Experiment; got != "c/e0001" {
		t.Fatalf("storage fault attributed to %q, want c/e0001", got)
	}
	if events[3].Experiment != "c/e0002" || events[3].Attempt != 1 {
		t.Fatalf("overlapping windows: got %q attempt %d, want latest-starting c/e0002 attempt 1",
			events[3].Experiment, events[3].Attempt)
	}
	if events[4].Experiment != "" {
		t.Fatalf("event outside every window attributed to %q", events[4].Experiment)
	}
	if events[5].Experiment != "c/e0009" {
		t.Fatal("pre-attributed event was rewritten")
	}
}

// TestAttributeEventsSkipsPhases: a phase event without an experiment ran
// outside every attempt, so no overlapping attempt window claims it.
func TestAttributeEventsSkipsPhases(t *testing.T) {
	events := AttributeEvents([]WideEvent{
		{TimeNs: 100, DurNs: 100, Kind: EvAttempt, Experiment: "c/e0001", TID: 1},
		{TimeNs: 150, DurNs: 10, Kind: EvPhase, Detail: "store-flush", TID: LogStageTID},
	})
	if events[1].Experiment != "" {
		t.Fatalf("phase event attributed to %q", events[1].Experiment)
	}
}

// attributeEventsLinear is the reference rule AttributeEvents implements:
// for each unattributed event, walk back from the latest-starting window to
// the first one that starts at or before the event, and take it if the
// event also falls before that window's end.
func attributeEventsLinear(events []WideEvent) []WideEvent {
	type window struct {
		start, end int64
		experiment string
		index      int
		attempt    int
	}
	var windows []window
	for _, ev := range events {
		if ev.Kind == EvAttempt && ev.Experiment != "" {
			windows = append(windows, window{ev.TimeNs, ev.TimeNs + ev.DurNs, ev.Experiment, ev.Index, ev.Attempt})
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].start < windows[j].start })
	for i := range events {
		if events[i].Experiment != "" || events[i].Kind == EvAttempt {
			continue
		}
		t := events[i].TimeNs
		for k := len(windows) - 1; k >= 0; k-- {
			w := windows[k]
			if w.start > t {
				continue
			}
			if t <= w.end {
				events[i].Experiment = w.experiment
				events[i].Index = w.index
				events[i].Attempt = w.attempt
			}
			break
		}
	}
	return events
}

// TestAttributeEventsMatchesLinear checks the binary-searched attribution
// against the linear reference on random overlapping windows, with shared
// start times, events on window edges and events outside every window.
func TestAttributeEventsMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		var events []WideEvent
		for i, n := 0, rng.Intn(40); i < n; i++ {
			ev := WideEvent{Seq: int64(len(events) + 1), TimeNs: rng.Int63n(200)}
			switch rng.Intn(4) {
			case 0:
				ev.Kind, ev.DurNs = EvAttempt, rng.Int63n(60)
				ev.Experiment, ev.Index, ev.Attempt = "c/e"+string(rune('a'+i%26)), i, rng.Intn(3)
			case 1:
				ev.Kind, ev.Experiment = EvRowDurable, "c/pre"
			default:
				ev.Kind = EvStorageFault
			}
			events = append(events, ev)
		}
		// Some unattributed events sit exactly on window edges.
		for _, ev := range events {
			if ev.Kind == EvAttempt {
				events = append(events,
					WideEvent{Kind: EvWALCommit, TimeNs: ev.TimeNs},
					WideEvent{Kind: EvWALCommit, TimeNs: ev.TimeNs + ev.DurNs},
					WideEvent{Kind: EvWALCommit, TimeNs: ev.TimeNs + ev.DurNs + 1})
			}
		}
		want := attributeEventsLinear(append([]WideEvent(nil), events...))
		got := AttributeEvents(append([]WideEvent(nil), events...))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d event %d: got %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestEventBatch: the batch id joins row-durable and wal-commit events.
func TestEventBatch(t *testing.T) {
	cases := []struct {
		detail string
		want   int64
	}{
		{"batch=42 records=3 bytes=100 synced=true err=false", 42},
		{"batch=7 synced=true", 7},
		{"batch=9", 9},
		{"op=3 kind=write", 0},
		{"batch=x", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := EventBatch(WideEvent{Detail: c.detail}); got != c.want {
			t.Fatalf("EventBatch(%q) = %d, want %d", c.detail, got, c.want)
		}
	}
}

// TestChromeTrace: spans become complete slices, instants become marks, and
// lanes map shard → process, tid → thread, rebased to the earliest event.
func TestChromeTrace(t *testing.T) {
	base := int64(5_000_000)
	tf := ChromeTrace([]WideEvent{
		{TimeNs: base + 1000, DurNs: 2000, Kind: EvAttempt, Experiment: "c/e0001", Shard: 1, TID: 2},
		{TimeNs: base, Kind: EvStorageFault, TID: StorageTID},
	})
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(tf.TraceEvents))
	}
	span, mark := tf.TraceEvents[0], tf.TraceEvents[1]
	if span.Ph != "X" || span.Dur != 2 || span.TsUs != 1 || span.Pid != 2 || span.Tid != 2 {
		t.Fatalf("span lane wrong: %+v", span)
	}
	if !strings.Contains(span.Name, "c/e0001") {
		t.Fatalf("span name %q lacks experiment", span.Name)
	}
	if mark.Ph != "i" || mark.TsUs != 0 || mark.Tid != StorageTID {
		t.Fatalf("instant mark wrong: %+v", mark)
	}
	// A phase event is named after its phase, not its kind or experiment.
	phase := ChromeTrace([]WideEvent{{TimeNs: base, DurNs: 1000, Kind: EvPhase, Detail: "scan-in", Experiment: "c/e0001", TID: 1}})
	if e := phase.TraceEvents[0]; e.Name != "scan-in" || e.Cat != EvPhase || e.Ph != "X" || e.Tid != 1 {
		t.Fatalf("phase slice wrong: %+v", e)
	}
	if empty := ChromeTrace(nil); empty.TraceEvents == nil || len(empty.TraceEvents) != 0 {
		t.Fatal("empty input must yield an empty (non-nil) event list")
	}
}

// retriedExperimentEvents builds the canonical causal chain the acceptance
// scenario reconstructs: attempt 0 hits an injected chaos fault, backs off,
// attempt 1 succeeds, the row lands in WAL batch 3.
func retriedExperimentEvents() []WideEvent {
	ms := int64(time.Millisecond)
	return []WideEvent{
		{Seq: 1, TimeNs: 0 * ms, Kind: EvPlan, Experiment: "c/e0001", Detail: "plan=transient@100"},
		{Seq: 2, TimeNs: 1 * ms, DurNs: 2 * ms, Kind: EvAttempt, Experiment: "c/e0001", Attempt: 0,
			Detail: "outcome=err cause=chaos"},
		{Seq: 3, TimeNs: 2 * ms, Kind: EvChaosError, TID: 1}, // inside attempt 0's window
		{Seq: 4, TimeNs: 3*ms + 1, DurNs: ms, Kind: EvRetry, Experiment: "c/e0001", Attempt: 0,
			Detail: "backoff=1ms cause=chaos"},
		{Seq: 5, TimeNs: 5 * ms, DurNs: 2 * ms, Kind: EvAttempt, Experiment: "c/e0001", Attempt: 1,
			Detail: "outcome=ok term=detected"},
		{Seq: 6, TimeNs: 8 * ms, Kind: EvRowDurable, Experiment: "c/e0001", Detail: "batch=3 synced=true"},
		{Seq: 7, TimeNs: 9 * ms, DurNs: ms, Kind: EvWALCommit, TID: WALCommitTID,
			Detail: "batch=3 records=1 bytes=64 synced=true err=false"},
		{Seq: 8, TimeNs: 9 * ms, DurNs: ms, Kind: EvWALCommit, TID: WALCommitTID,
			Detail: "batch=4 records=1 bytes=64 synced=true err=false"}, // other experiment's batch
		{Seq: 9, TimeNs: 1 * ms, Kind: EvPlan, Experiment: "c/e0002", Detail: "plan=transient@200"},
	}
}

// TestFormatTimeline: one experiment's rendered chain contains its chaos
// fault, the retry backoff, both attempts and exactly the WAL batch that
// committed its row.
func TestFormatTimeline(t *testing.T) {
	var sb strings.Builder
	if err := FormatTimeline(&sb, retriedExperimentEvents(), "c/e0001"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		EvPlan, EvChaosError, EvRetry, "outcome=err cause=chaos",
		"outcome=ok term=detected", "batch=3 synced=true",
		"batch=3 records=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "batch=4") {
		t.Fatalf("timeline includes an unrelated WAL batch:\n%s", out)
	}
	if strings.Contains(out, "c/e0002") {
		t.Fatalf("timeline includes another experiment:\n%s", out)
	}
	if err := FormatTimeline(&sb, retriedExperimentEvents(), "c/e0099"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestFormatTraceSummary: the rollup counts events, attempts and faults per
// experiment and tallies unattributed leftovers.
func TestFormatTraceSummary(t *testing.T) {
	var sb strings.Builder
	FormatTraceSummary(&sb, retriedExperimentEvents())
	out := sb.String()
	if !strings.Contains(out, "c/e0001") || !strings.Contains(out, "c/e0002") {
		t.Fatalf("summary lacks experiments:\n%s", out)
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "c/e0001") {
			line = l
		}
	}
	// 5 own events + the attributed chaos error; 2 attempts; 1 fault.
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[1] != "6" || fields[2] != "2" || fields[3] != "1" {
		t.Fatalf("c/e0001 rollup = %q, want events=6 attempts=2 faults=1", line)
	}
}
