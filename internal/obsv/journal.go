package obsv

import (
	"sync"
	"time"
)

// Provenance tracing: structured wide events that reconstruct the causal
// story of one experiment across every layer of the engine — the plan drawn
// for it, each attempt with the chaos faults that hit it, retry backoffs,
// hang/quarantine verdicts, checkpoint restores, the store flush that logged
// its row, the WAL commit batch (and fsync) that made the row durable, and
// any storage faults fired while the attempt was in flight.
//
// Events flow into a bounded ring Journal attached to the Recorder
// (Options.Journal). The disabled state follows the package's nil rule: a
// nil *Journal no-ops, Recorder.Journal() returns nil when journalling is
// off, and emitters guard all detail-string formatting behind that nil
// check, so the disabled path costs one branch and zero allocations.

// Event kinds. A fixed vocabulary rather than free-form strings so renderers
// and tests can switch on them.
const (
	// EvPlan: an injection plan was drawn for an experiment.
	EvPlan = "plan"
	// EvAttempt: one experiment attempt ran; TimeNs is its start, DurNs its
	// duration, Detail its outcome.
	EvAttempt = "attempt"
	// EvInject: the fault-injection algorithm performed an injection.
	EvInject = "inject"
	// EvRetry: the engine slept a retry backoff after a transient fault;
	// Detail names the fault that caused it.
	EvRetry = "retry-backoff"
	// EvHang: the wall-clock watchdog gave up on an attempt.
	EvHang = "hang"
	// EvQuarantine: a target instance was retired and replaced.
	EvQuarantine = "quarantine"
	// EvRestore: the forking engine restored a golden-run checkpoint instead
	// of re-executing the prefix.
	EvRestore = "checkpoint-restore"
	// EvChaosError, EvChaosPanic, EvChaosHang: the Flaky chaos wrapper
	// injected a fault into the attempt in flight.
	EvChaosError = "chaos-error"
	EvChaosPanic = "chaos-panic"
	EvChaosHang  = "chaos-hang"
	// EvRowDurable: the store acknowledged an experiment row; Detail carries
	// the WAL commit batch and fsync state that made it durable.
	EvRowDurable = "row-durable"
	// EvWALCommit: the WAL committer wrote one group-commit batch.
	EvWALCommit = "wal-commit"
	// EvStorageFault: the fault-injecting filesystem fired under the campaign
	// database while the run was in flight.
	EvStorageFault = "storage-fault"
	// EvHTTPRequest: the service accepted an HTTP request that concerns this
	// campaign; Detail carries the request id and route.
	EvHTTPRequest = "http-request"
)

// Virtual thread ids for emitters that do not run on a campaign worker.
const (
	// WALCommitTID is the WAL group-commit goroutine.
	WALCommitTID int32 = -1
	// StorageTID is the storage layer (vfs fault injection).
	StorageTID int32 = -2
	// HTTPTID is the service HTTP layer.
	HTTPTID int32 = -3
	// LogStageTID is the campaign runner's logging stage, the goroutine that
	// writes experiment rows to the store while experiments run.
	LogStageTID int32 = -4
)

// WideEvent is one structured provenance event. The JSON form is the NDJSON
// currency of the service's /trace endpoint and the persisted row format of
// the ExperimentTraceEvents table.
type WideEvent struct {
	// Seq is the journal-assigned append order (unique per journal).
	Seq int64 `json:"seq"`
	// RunID groups the events of one persisted run; 0 while still in the
	// live journal (assigned when the journal is drained to the store).
	RunID int64 `json:"runId,omitempty"`
	// TimeNs is the event's wall-clock time (Unix nanoseconds). For span
	// events (EvAttempt, EvRetry, EvWALCommit) it is the start time.
	TimeNs int64 `json:"timeNs"`
	// DurNs is the span duration; 0 for instant events.
	DurNs int64 `json:"durNs,omitempty"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Campaign names the campaign the event belongs to.
	Campaign string `json:"campaign,omitempty"`
	// Shard numbers the emitting runner's shard. It stays in the persisted
	// trace format; campaigns run as one runner, so engine events carry 0.
	Shard int `json:"shard,omitempty"`
	// Experiment is the experiment name when the emitter knows it; storage
	// and WAL events leave it empty and are attributed at render time by
	// timestamp overlap (AttributeEvents).
	Experiment string `json:"experiment,omitempty"`
	// Index is the experiment's campaign index (meaningful with Experiment).
	Index int `json:"index,omitempty"`
	// Attempt is the zero-based attempt number the event belongs to.
	Attempt int `json:"attempt,omitempty"`
	// TID is the virtual thread of the emitter: 0 coordinator, 1..N workers,
	// or one of the negative reserved ids above.
	TID int32 `json:"tid"`
	// Detail is a human-readable elaboration (fault kind, WAL batch, error).
	Detail string `json:"detail,omitempty"`
}

// DefaultJournalCap bounds a recorder's ring journal:
// enough for tens of thousands of experiments' worth of events without
// letting a runaway campaign hold gigabytes.
const DefaultJournalCap = 1 << 16

// Journal is a bounded, drop-counting ring of wide events. It grows on
// demand up to its capacity; when full, the oldest event is overwritten and
// Dropped is incremented — recent history wins, and the drop counter keeps
// the loss honest. All methods are safe for concurrent use and no-op on a
// nil *Journal.
type Journal struct {
	mu       sync.Mutex
	buf      []WideEvent // appended until len reaches capacity, then a ring
	capacity int
	start    int // ring index of the oldest buffered event
	seq      int64
	dropped  int64
}

// NewJournal builds a journal holding at most capacity events (0 = default).
// Nothing is allocated until the first Emit.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{capacity: capacity}
}

// Emit appends one event, assigning its Seq and stamping TimeNs with the
// current wall clock when the emitter did not provide one.
func (j *Journal) Emit(ev WideEvent) {
	if j == nil {
		return
	}
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if len(j.buf) < j.capacity {
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.start] = ev
		j.start = (j.start + 1) % len(j.buf)
		j.dropped++
	}
	j.mu.Unlock()
}

// Events returns a copy of the buffered events in append (Seq) order.
func (j *Journal) Events() []WideEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]WideEvent, 0, len(j.buf))
	out = append(out, j.buf[j.start:]...)
	return append(out, j.buf[:j.start]...)
}

// Len reports the buffered event count.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Dropped reports how many events were overwritten past the ring capacity.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// TraceContext identifies the experiment attempt in flight: campaign run →
// shard → experiment → attempt. It travels from the Runner into the target
// wrappers (via target.ApplyTraceContext) so layers that inject or observe
// faults can attribute their events to the attempt they hit. The zero value
// is the disabled state.
type TraceContext struct {
	// Rec carries the recorder whose journal receives the events.
	Rec        *Recorder
	Campaign   string
	Shard      int
	Experiment string
	Index      int
	Attempt    int
	TID        int32
}

// Enabled reports whether events emitted through this context go anywhere.
// Emitters must guard detail-string formatting behind it so the disabled
// path stays allocation-free.
func (tc TraceContext) Enabled() bool {
	return tc.Rec.Journal() != nil
}

// Emit records one instant event carrying the context's attribution.
func (tc TraceContext) Emit(kind, detail string) {
	tc.emit(kind, detail, 0, 0)
}

// EmitSpan records one span event: TimeNs = start, DurNs = elapsed since.
func (tc TraceContext) EmitSpan(kind, detail string, start time.Time) {
	tc.emit(kind, detail, start.UnixNano(), int64(time.Since(start)))
}

func (tc TraceContext) emit(kind, detail string, timeNs, durNs int64) {
	j := tc.Rec.Journal()
	if j == nil {
		return
	}
	j.Emit(WideEvent{
		TimeNs:     timeNs,
		DurNs:      durNs,
		Kind:       kind,
		Campaign:   tc.Campaign,
		Shard:      tc.Shard,
		Experiment: tc.Experiment,
		Index:      tc.Index,
		Attempt:    tc.Attempt,
		TID:        tc.TID,
		Detail:     detail,
	})
}
