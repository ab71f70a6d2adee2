// Package obsv is GOOFI's observability subsystem: a dependency-free
// metrics registry (atomic counters, gauges, streaming histograms with
// p50/p95/p99) and a per-experiment span tracer that records where campaign
// wall-clock time goes — target initialisation, the golden reference run,
// scan shift-in/out, workload execution, injection, retry attempts, store
// flushes — and emits Chrome trace_event-format JSON.
//
// The central type is Recorder. Every method is nil-safe: a nil *Recorder
// is the disabled state and costs one branch and zero allocations on the
// hot loop, so the campaign engine, the Measured target wrapper and the
// database layer carry a recorder unconditionally and the user pays only
// when observability is switched on.
//
// Phase accounting follows one rule that makes the numbers trustworthy:
// the Phase* constants are LEAF phases that never overlap in time on one
// goroutine, so on a sequential campaign's own threads their durations sum
// to (just under) the campaign wall-clock; PhaseFlush and PhaseWALAppend
// run on threads of their own and overlap them. Grouping spans — the campaign, the reference run, one
// experiment, one injection — are trace-only (BeginGroup) and deliberately
// excluded from the phase metrics, because they contain leaf phases and
// would double-count.
package obsv

import (
	"io"
	"time"
)

// Phase identifies one leaf phase of campaign execution. Leaf phases are
// mutually exclusive in time on any one goroutine: their total durations
// partition the campaign wall-clock (minus untimed engine glue).
type Phase uint8

const (
	// PhaseInit is target initialisation: power-up reset, workload
	// assembly/load, and arming the workload at its entry point.
	PhaseInit Phase = iota
	// PhasePlan is injection-plan sampling from the fault model.
	PhasePlan
	// PhaseWorkload is workload execution on the target: running to a
	// breakpoint, a trigger, or termination.
	PhaseWorkload
	// PhaseScanOut is shifting chain contents out of the target through the
	// TAP (ReadScanChain).
	PhaseScanOut
	// PhaseScanIn is shifting chain contents into the target (WriteScanChain).
	PhaseScanIn
	// PhaseMemory is test-card memory access through the host port.
	PhaseMemory
	// PhaseCheckpointSave is capturing a target snapshot: the scifi-checkpoint
	// single slot and the forking engine's golden-run checkpoint grid
	// (imports into a worker's pool are accounted here too).
	PhaseCheckpointSave
	// PhaseCheckpointRestore is rolling a target back to a saved snapshot.
	PhaseCheckpointRestore
	// PhaseRetry is backoff sleep between experiment retry attempts.
	PhaseRetry
	// PhaseFlush is persisting experiment rows to the campaign store. While
	// experiments run it is the campaign's logging stage, a dedicated virtual
	// thread (LogStageTID): like PhaseWALAppend it never overlaps another
	// phase on its own thread, but it overlaps the workers' phases.
	PhaseFlush
	// PhaseWALAppend is the write-ahead log's group-commit work: writing
	// coalesced record batches and fsyncing them. It runs on the WAL's own
	// committer goroutine (a dedicated virtual thread), so it remains a leaf
	// phase — it never overlaps another phase on the same thread, it overlaps
	// the campaign threads it makes durable.
	PhaseWALAppend
	// NumPhases bounds the Phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseInit:              "target-init",
	PhasePlan:              "plan",
	PhaseWorkload:          "workload",
	PhaseScanOut:           "scan-out",
	PhaseScanIn:            "scan-in",
	PhaseMemory:            "memory",
	PhaseCheckpointSave:    "checkpoint-save",
	PhaseCheckpointRestore: "checkpoint-restore",
	PhaseRetry:             "retry-backoff",
	PhaseFlush:             "store-flush",
	PhaseWALAppend:         "wal-append",
}

// String names the phase as it appears in metrics dumps and traces.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Options configures a Recorder.
type Options struct {
	// Trace enables the span tracer (Chrome trace_event buffer). Metrics
	// are always on for a non-nil recorder.
	Trace bool
	// TraceCap bounds the buffered trace events; 0 means DefaultTraceCap.
	TraceCap int
	// Journal enables the provenance wide-event journal (see journal.go).
	Journal bool
	// JournalCap bounds the journal ring; 0 means DefaultJournalCap.
	JournalCap int
}

// Recorder collects metrics (always, when non-nil) and trace spans (when
// Options.Trace). The zero value is not usable; construct with New. A nil
// *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	epoch   time.Time
	reg     *Registry
	tracer  *tracer
	journal *Journal
	phases  [NumPhases]*Histogram
}

// New builds a recorder. The trace epoch (ts=0 of the trace file) is the
// moment of creation.
func New(o Options) *Recorder {
	r := &Recorder{epoch: time.Now(), reg: NewRegistry()}
	for p := Phase(0); p < NumPhases; p++ {
		r.phases[p] = r.reg.Histogram("phase." + p.String())
	}
	if o.Trace {
		r.tracer = newTracer(o.TraceCap)
	}
	if o.Journal {
		r.journal = NewJournal(o.JournalCap)
	}
	return r
}

// Journal returns the provenance wide-event journal, or nil when journalling
// is disabled (including on a nil recorder). Emitters branch on the returned
// pointer before formatting any event detail, keeping the disabled path free
// of allocations.
func (r *Recorder) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal
}

// Registry exposes the underlying metrics registry (nil on a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Span is one in-flight timed section. Span is a value type: starting and
// ending a span allocates nothing.
type Span struct {
	r     *Recorder
	start time.Time
	name  string // grouping spans only
	phase int8   // >= 0: leaf phase; < 0: trace-only grouping span
	tid   int32
}

// Begin starts a leaf-phase span on virtual thread tid (0 = the campaign
// coordinator, 1..N = worker goroutines). The duration is recorded into the
// phase histogram on End, and into the trace when tracing is on.
func (r *Recorder) Begin(p Phase, tid int32) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, start: time.Now(), phase: int8(p), tid: tid}
}

// BeginGroup starts a trace-only grouping span (an experiment, the
// reference run, one injection). Grouping spans contain leaf phases and are
// therefore excluded from the phase metrics — they exist to structure the
// trace timeline. With tracing off this records nothing.
func (r *Recorder) BeginGroup(name string, tid int32) Span {
	if r == nil || r.tracer == nil {
		return Span{}
	}
	return Span{r: r, start: time.Now(), name: name, phase: -1, tid: tid}
}

// End closes the span, recording its duration. End on a zero Span no-ops.
func (s Span) End() {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	if s.phase >= 0 {
		s.r.phases[s.phase].Observe(int64(d))
		if s.r.tracer != nil {
			s.r.tracer.add(Phase(s.phase).String(), "phase", s.tid, s.start.Sub(s.r.epoch), d)
		}
		return
	}
	s.r.tracer.add(s.name, "group", s.tid, s.start.Sub(s.r.epoch), d)
}

// PhaseTotal returns the accumulated nanoseconds of one leaf phase.
func (r *Recorder) PhaseTotal(p Phase) int64 {
	if r == nil || p >= NumPhases {
		return 0
	}
	return r.phases[p].Sum()
}

// Count adds n to the named counter.
func (r *Recorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.reg.Counter(name).Add(n)
}

// SetGauge assigns the named gauge.
func (r *Recorder) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.reg.Gauge(name).Set(v)
}

// Observe records a duration into the named histogram (outside the phase
// namespace — the store layer uses this for per-call latencies).
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Histogram(name).Observe(int64(d))
}

// ObserveSince is Observe(name, time.Since(start)) — the one-line deferred
// instrumentation form.
func (r *Recorder) ObserveSince(name string, start time.Time) {
	if r == nil {
		return
	}
	r.reg.Histogram(name).Observe(int64(time.Since(start)))
}

// SetWallClock records the campaign's total wall-clock time; the snapshot's
// per-phase percentages are computed against it.
func (r *Recorder) SetWallClock(d time.Duration) {
	if r == nil {
		return
	}
	r.reg.Gauge("campaign.wall_ns").Set(int64(d))
}

// WriteTrace emits the buffered spans as a Chrome-loadable trace_event JSON
// document. With tracing off it writes a valid empty trace.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil || r.tracer == nil {
		return newTracer(1).writeJSON(w)
	}
	return r.tracer.writeJSON(w)
}

// Carrier is implemented by instrumented wrappers (target.Measured) so that
// code holding only an abstract interface — the injection algorithms — can
// reach the recorder travelling with it.
type Carrier interface {
	// ObsvRecorder returns the wrapper's recorder (possibly nil).
	ObsvRecorder() *Recorder
	// ObsvTID returns the virtual thread id the wrapper records under.
	ObsvTID() int32
}

// GroupOf starts a trace-only grouping span on v's recorder if v is a
// Carrier, and a no-op span otherwise — the zero-cost hook the injection
// algorithms use without knowing whether the target is instrumented.
func GroupOf(v any, name string) Span {
	c, ok := v.(Carrier)
	if !ok {
		return Span{}
	}
	return c.ObsvRecorder().BeginGroup(name, c.ObsvTID())
}
