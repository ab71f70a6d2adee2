package obsv

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceEvent is one Chrome trace_event record ("X" complete events only).
// The JSON field names follow the Trace Event Format specification, so a
// dump loads directly into chrome://tracing or Perfetto.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TsUs float64 `json:"ts"`  // start, microseconds since trace epoch
	Dur  float64 `json:"dur"` // duration, microseconds
	Pid  int     `json:"pid"`
	Tid  int32   `json:"tid"`
}

// TraceFile is the envelope the tracer writes — the JSON Object Format of
// the trace_event spec.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// DefaultTraceCap bounds the buffered trace events: a 100k-experiment
// campaign would otherwise grow the buffer without bound. Events beyond the
// cap are dropped and counted; the metrics snapshot reports the drop count.
const DefaultTraceCap = 1 << 20

// tracer buffers trace events for one campaign run.
type tracer struct {
	mu      sync.Mutex
	events  []TraceEvent
	cap     int
	dropped int64
}

func newTracer(capEvents int) *tracer { return &tracer{cap: capEvents} }

// add buffers one complete event.
func (t *tracer) add(name, cat string, tid int32, start, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, TraceEvent{
		Name: name,
		Cat:  cat,
		Ph:   "X",
		TsUs: float64(start) / float64(time.Microsecond),
		Dur:  float64(dur) / float64(time.Microsecond),
		Pid:  1,
		Tid:  tid,
	})
}

// stats reports the buffered and dropped event counts.
func (t *tracer) stats() (buffered, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.events)), t.dropped
}

// writeJSON emits the Chrome-loadable trace file.
func (t *tracer) writeJSON(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	t.mu.Unlock()
	if events == nil {
		events = []TraceEvent{} // an empty trace is still a valid trace
	}
	enc := json.NewEncoder(w)
	return enc.Encode(TraceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
