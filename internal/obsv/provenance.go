package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Rendering and export of provenance wide events: causal ordering, render-
// time attribution of storage/WAL events to the attempt they overlapped, the
// per-experiment timeline behind `goofi trace`, and the Chrome trace_event
// exporter.

// SortEvents orders events causally: by wall-clock time, with the journal
// append order breaking ties. Merged streams (several workers sharing one
// journal, or several runs' persisted rows) end up interleaved the way they
// actually happened.
func SortEvents(events []WideEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TimeNs != events[j].TimeNs {
			return events[i].TimeNs < events[j].TimeNs
		}
		return events[i].Seq < events[j].Seq
	})
}

// AttributeEvents assigns experiment attribution to events that were emitted
// below the experiment layer — storage faults and WAL commits carry no
// experiment name of their own — by timestamp overlap with attempt spans:
// an unattributed event landing inside an attempt's [start, start+dur]
// window inherits that attempt's experiment. When windows overlap (parallel
// workers), the latest-starting window wins; events overlapping no attempt
// stay unattributed. Phase events are left alone: the span that journals
// one knows whether it ran inside an attempt, so an unattributed phase ran
// outside every attempt, whatever overlaps it on another thread. The input
// slice is modified in place and returned.
func AttributeEvents(events []WideEvent) []WideEvent {
	type window struct {
		start, end int64
		experiment string
		index      int
		attempt    int
	}
	var windows []window
	for _, ev := range events {
		if ev.Kind == EvAttempt && ev.Experiment != "" {
			windows = append(windows, window{
				start:      ev.TimeNs,
				end:        ev.TimeNs + ev.DurNs,
				experiment: ev.Experiment,
				index:      ev.Index,
				attempt:    ev.Attempt,
			})
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].start < windows[j].start })
	for i := range events {
		if events[i].Experiment != "" || events[i].Kind == EvAttempt || events[i].Kind == EvPhase {
			continue
		}
		t := events[i].TimeNs
		// The latest window starting at or before t; windows before it start
		// even earlier, so it alone can win.
		k := sort.Search(len(windows), func(k int) bool { return windows[k].start > t }) - 1
		if k >= 0 && t <= windows[k].end {
			events[i].Experiment = windows[k].experiment
			events[i].Index = windows[k].index
			events[i].Attempt = windows[k].attempt
		}
	}
	return events
}

// EventBatch extracts the WAL commit batch id from an event's detail
// ("batch=N ..."), or 0 when the event carries none. Row-durability and
// WAL-commit events share this key, which is how a renderer links a row to
// the exact group-commit batch that made it durable.
func EventBatch(ev WideEvent) int64 {
	detail := ev.Detail
	i := strings.Index(detail, "batch=")
	if i < 0 {
		return 0
	}
	detail = detail[i+len("batch="):]
	if j := strings.IndexByte(detail, ' '); j >= 0 {
		detail = detail[:j]
	}
	n, err := strconv.ParseInt(detail, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// TraceEvent is one Chrome trace_event record: a complete ("X") slice or an
// instant ("i") mark. The JSON field names follow the Trace Event Format
// specification, so a dump loads directly into chrome://tracing or Perfetto.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TsUs float64 `json:"ts"`  // start, microseconds since trace epoch
	Dur  float64 `json:"dur"` // duration, microseconds
	Pid  int     `json:"pid"`
	Tid  int32   `json:"tid"`
}

// TraceFile is the envelope ChromeTrace builds — the JSON Object Format of
// the trace_event spec.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ChromeTrace stitches wide events onto one Chrome trace_event timeline: one
// process lane per Shard value, one thread lane per virtual thread,
// timestamps rebased to the earliest event. Phase events are named after
// their phase, other events after their kind and experiment. Span events
// render as complete ("X") slices, instant events as "i" marks.
func ChromeTrace(events []WideEvent) TraceFile {
	out := TraceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	if len(events) == 0 {
		return out
	}
	epoch := events[0].TimeNs
	for _, ev := range events {
		if ev.TimeNs < epoch {
			epoch = ev.TimeNs
		}
	}
	for _, ev := range events {
		te := TraceEvent{
			Name: ev.Kind,
			Cat:  "provenance",
			Ph:   "i",
			TsUs: float64(ev.TimeNs-epoch) / float64(time.Microsecond),
			Pid:  ev.Shard + 1,
			Tid:  ev.TID,
		}
		switch {
		case ev.Kind == EvPhase:
			te.Name, te.Cat = ev.Detail, EvPhase
		case ev.Experiment != "":
			te.Name = ev.Kind + " " + ev.Experiment
		}
		if ev.DurNs > 0 {
			te.Ph = "X"
			te.Dur = float64(ev.DurNs) / float64(time.Microsecond)
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	return out
}

// FormatTraceSummary renders the per-experiment index of a trace: one line
// per experiment with its event/attempt/fault counts, plus the campaign-
// global event tally — the `goofi trace CAMPAIGN` view.
func FormatTraceSummary(w io.Writer, events []WideEvent) {
	events = AttributeEvents(append([]WideEvent(nil), events...))
	SortEvents(events)
	type expStats struct {
		events, attempts, faults int
		firstNs                  int64
	}
	perExp := map[string]*expStats{}
	var order []string
	global := 0
	for _, ev := range events {
		if ev.Experiment == "" {
			global++
			continue
		}
		st := perExp[ev.Experiment]
		if st == nil {
			st = &expStats{firstNs: ev.TimeNs}
			perExp[ev.Experiment] = st
			order = append(order, ev.Experiment)
		}
		st.events++
		switch ev.Kind {
		case EvAttempt:
			st.attempts++
		case EvChaosError, EvChaosPanic, EvChaosHang, EvStorageFault:
			st.faults++
		}
	}
	fmt.Fprintf(w, "%-28s %8s %9s %8s\n", "experiment", "events", "attempts", "faults")
	for _, name := range order {
		st := perExp[name]
		fmt.Fprintf(w, "%-28s %8d %9d %8d\n", name, st.events, st.attempts, st.faults)
	}
	if global > 0 {
		fmt.Fprintf(w, "%-28s %8d\n", "(unattributed)", global)
	}
}

// FormatTimeline renders one experiment's causal timeline: every event
// attributed to it (including storage faults and chaos faults attributed by
// timestamp overlap) plus the WAL commit batches that made its rows durable,
// in causal order with offsets relative to the experiment's first event —
// the `goofi trace CAMPAIGN EXPERIMENT` view.
func FormatTimeline(w io.Writer, events []WideEvent, experiment string) error {
	events = AttributeEvents(append([]WideEvent(nil), events...))
	SortEvents(events)

	// The WAL batches that committed this experiment's rows: wal-commit
	// events matching a row-durable batch join the timeline.
	batches := map[int64]bool{}
	for _, ev := range events {
		if ev.Kind == EvRowDurable && ev.Experiment == experiment {
			if b := EventBatch(ev); b > 0 {
				batches[b] = true
			}
		}
	}
	var line []WideEvent
	for _, ev := range events {
		switch {
		case ev.Experiment == experiment:
			line = append(line, ev)
		case ev.Kind == EvWALCommit && batches[EventBatch(ev)]:
			line = append(line, ev)
		}
	}
	if len(line) == 0 {
		return fmt.Errorf("obsv: no trace events for experiment %q", experiment)
	}
	t0 := line[0].TimeNs
	fmt.Fprintf(w, "timeline of %s (%d events)\n", experiment, len(line))
	fmt.Fprintf(w, "%12s %10s  %-18s %s\n", "offset", "duration", "event", "detail")
	for _, ev := range line {
		dur := "-"
		if ev.DurNs > 0 {
			dur = fmtDur(ev.DurNs)
		}
		detail := ev.Detail
		if ev.Kind != EvWALCommit {
			detail = fmt.Sprintf("attempt=%d %s", ev.Attempt, ev.Detail)
		}
		fmt.Fprintf(w, "%12s %10s  %-18s %s\n",
			"+"+fmtDur(ev.TimeNs-t0), dur, ev.Kind, strings.TrimSpace(detail))
	}
	return nil
}
