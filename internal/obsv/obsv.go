// Package obsv is GOOFI's observability subsystem: a dependency-free
// metrics registry (atomic counters, gauges, streaming histograms with
// p50/p95/p99), leaf-phase spans that record where campaign wall-clock time
// goes — target initialisation, planning, scan shift-in/out, workload
// execution, retry backoff, store flushes — and the provenance Journal, one
// bounded buffer of timed wide events that every trace renderer reads
// (ChromeTrace, `goofi trace`, the service's /trace stream).
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
// run on threads of their own and overlap them. A recorder built with
// Options.Trace also journals every leaf-phase span as an EvPhase event;
// the structure around them — one experiment attempt, one injection — is
// the journal's own EvAttempt spans and EvInject events, so nothing is
// counted twice.
package obsv

import "time"

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
	// Trace journals every leaf-phase span as an EvPhase wide event, for
	// `goofi run -trace-out`. It implies Journal, with room for
	// DefaultTraceCap events. Metrics are always on for a non-nil recorder.
	Trace bool
	// Journal enables the provenance wide-event journal (see journal.go).
	Journal bool
}

// Recorder collects metrics (always, when non-nil) and wide events (when
// Options.Journal or Options.Trace). The zero value is not usable; construct
// with New. A nil *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	reg         *Registry
	journal     *Journal
	phaseEvents bool // Options.Trace: Span.End journals an EvPhase event
	phases      [NumPhases]*Histogram
}

// New builds a recorder.
func New(o Options) *Recorder {
	r := &Recorder{reg: NewRegistry(), phaseEvents: o.Trace}
	for p := Phase(0); p < NumPhases; p++ {
		r.phases[p] = r.reg.Histogram("phase." + p.String())
	}
	switch {
	case o.Trace:
		r.journal = NewJournal(DefaultTraceCap)
	case o.Journal:
		r.journal = NewJournal(DefaultJournalCap)
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

// Span is one in-flight leaf-phase section. Span is a value type: starting
// and ending a span allocates nothing.
type Span struct {
	tc    TraceContext // tc.Rec records the span; the rest attributes its EvPhase event
	start time.Time
	phase Phase
}

// Begin starts a leaf-phase span on virtual thread tid (0 = the campaign
// coordinator, 1..N = worker goroutines, or one of the reserved negative
// ids). The duration is recorded into the phase histogram on End, and
// journalled as an EvPhase event that names no experiment when the
// recorder was built with Options.Trace.
func (r *Recorder) Begin(p Phase, tid int32) Span {
	return r.BeginIn(p, TraceContext{TID: tid})
}

// BeginIn starts a leaf-phase span inside the experiment attempt tc names:
// its EvPhase event carries tc's campaign, experiment, attempt and tid. The
// span records into r, whichever recorder tc carries.
func (r *Recorder) BeginIn(p Phase, tc TraceContext) Span {
	if r == nil {
		return Span{}
	}
	tc.Rec = r
	return Span{tc: tc, start: time.Now(), phase: p}
}

// End closes the span, recording its duration. End on a zero Span no-ops.
func (s Span) End() {
	r := s.tc.Rec
	if r == nil {
		return
	}
	d := time.Since(s.start)
	r.phases[s.phase].Observe(int64(d))
	if r.phaseEvents {
		s.tc.emit(EvPhase, s.phase.String(), s.start.UnixNano(), int64(d))
	}
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
