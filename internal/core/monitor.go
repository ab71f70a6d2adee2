package core

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"goofi/internal/dbase"
	"goofi/internal/obsv"
)

// RunMetricsStore is the optional persistence surface for campaign run
// metrics (the CampaignRunMetrics table); *dbase.Store implements it. It is
// type-asserted from the runner's CampaignStore rather than added to that
// interface, so existing store decorators keep working and metrics
// persistence degrades to disabled on stores that lack it.
type RunMetricsStore interface {
	NextRunID(campaign string) (int64, error)
	PutRunMetrics(rows []dbase.RunMetricsRow) error
}

// monitor is the live-monitoring side-car of one Run: a ticker goroutine
// that periodically snapshots campaign progress into CampaignEvent frames
// (published through Runner.Events) and buffered CampaignRunMetrics rows.
//
// Threading: observe runs on the Run goroutine (it is fed from report);
// the ticker goroutine only reads the latest Progress and appends rows to
// the in-memory buffer under the mutex. No store call happens off the Run
// goroutine — NextRunID runs at start and PutRunMetrics in finish, both on
// the Run goroutine, because the underlying SQL engine is not verified
// thread-safe.
type monitor struct {
	r      *Runner
	events *obsv.Broadcaster
	sink   RunMetricsStore
	runID  int64
	start  time.Time

	mu   sync.Mutex
	last Progress
	seq  int64
	rows []dbase.RunMetricsRow

	stop chan struct{}
	done chan struct{}
}

// startMonitor builds and starts the run's monitor, or returns nil when
// neither live events nor metrics persistence are enabled. Metrics rows are
// persisted only with a Recorder attached (they embed its phase and store
// latencies) and a store implementing RunMetricsStore. Must be called after
// ensureCampaignRow: CampaignRunMetrics rows are FK-linked to CampaignData.
func (r *Runner) startMonitor() (*monitor, error) {
	var sink RunMetricsStore
	if r.Recorder != nil {
		if s, ok := r.store.(RunMetricsStore); ok {
			sink = s
		}
	}
	if r.Events == nil && sink == nil {
		return nil, nil
	}
	m := &monitor{
		r:      r,
		events: r.Events,
		sink:   sink,
		start:  time.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.last = Progress{Campaign: r.campaign.Name, Total: r.campaign.NExperiments}
	if sink != nil {
		id, err := sink.NextRunID(r.campaign.Name)
		if err != nil {
			return nil, fmt.Errorf("core: campaign %s: allocate metrics run id: %w",
				r.campaign.Name, err)
		}
		m.runID = id
	}
	interval := r.MonitorInterval
	if interval <= 0 {
		interval = time.Second
	}
	go m.loop(interval)
	return m, nil
}

// loop is the ticker goroutine: one sample per interval until finish stops it.
func (m *monitor) loop(interval time.Duration) {
	defer close(m.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sample(false)
		case <-m.stop:
			return
		}
	}
}

// observe records the latest progress tick. Runs on the Run goroutine; a nil
// monitor (monitoring disabled) no-ops.
func (m *monitor) observe(p Progress) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.last = p
	m.mu.Unlock()
}

// sample turns the latest observed progress into one event frame and, with
// persistence enabled, one buffered metrics row.
func (m *monitor) sample(final bool) {
	m.mu.Lock()
	p := m.last
	seq := m.seq
	m.seq++
	m.mu.Unlock()

	elapsed := time.Since(m.start)
	ev := obsv.CampaignEvent{
		Campaign:    p.Campaign,
		Seq:         seq,
		ElapsedNs:   int64(elapsed),
		Done:        p.Done,
		Total:       p.Total,
		Skipped:     p.Skipped,
		Detected:    p.Detected,
		Retries:     p.Retries,
		Hangs:       p.Hangs,
		Quarantined: p.Quarantined,
		Workers:     max(m.r.campaign.Workers, 1),
		LastOutcome: p.LastOutcome,
		Final:       final,
	}
	if secs := elapsed.Seconds(); secs > 0 && p.Done > 0 {
		ev.RatePerSec = float64(p.Done) / secs
		if rem := p.Total - p.Done; rem > 0 {
			ev.EtaNs = int64(float64(rem) / ev.RatePerSec * 1e9)
		}
	}
	m.events.Publish(ev)

	if m.sink != nil {
		row := m.metricsRow(seq, final, p, int64(elapsed))
		m.mu.Lock()
		m.rows = append(m.rows, row)
		m.mu.Unlock()
	}
}

// metricsRow assembles one CampaignRunMetrics row from the progress counters
// plus the recorder's phase totals and store-latency instruments.
func (m *monitor) metricsRow(seq int64, final bool, p Progress, elapsedNs int64) dbase.RunMetricsRow {
	row := dbase.RunMetricsRow{
		CampaignName: m.r.campaign.Name,
		RunID:        m.runID,
		Seq:          seq,
		Final:        final,
		ElapsedNs:    elapsedNs,
		Done:         p.Done,
		Total:        p.Total,
		Skipped:      p.Skipped,
		Retries:      p.Retries,
		Hangs:        p.Hangs,
		Quarantined:  p.Quarantined,
		Workers:      max(m.r.campaign.Workers, 1),
	}
	rec := m.r.Recorder
	for ph := obsv.Phase(0); ph < obsv.NumPhases; ph++ {
		row.PhaseNs[ph] = rec.PhaseTotal(ph)
	}
	s := rec.Snapshot()
	row.StoreCalls = s.Counters["store.calls"]
	row.StoreRows = s.Counters["store.rows"]
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, "store.") && h.P95Ns > row.StoreP95Ns {
			row.StoreP95Ns = h.P95Ns
		}
	}
	return row
}

// finish ends monitoring on the Run goroutine: the ticker is stopped, a
// final frame with the summary's exact counters is published, the event
// stream is closed so subscribers terminate, and the buffered metrics rows —
// interval samples plus the final row — are flushed to the store in one
// batch. The returned error only reports the flush; callers surface it when
// the campaign itself succeeded.
func (m *monitor) finish(sum Summary) error {
	if m == nil {
		return nil
	}
	close(m.stop)
	<-m.done

	m.mu.Lock()
	outcome := m.last.LastOutcome
	m.mu.Unlock()
	m.observe(Progress{
		Campaign:    m.r.campaign.Name,
		Done:        sum.Completed + sum.Skipped,
		Total:       m.r.campaign.NExperiments,
		Skipped:     sum.Skipped,
		Detected:    detectedOf(sum),
		Retries:     sum.Retries,
		Hangs:       sum.Hangs,
		Quarantined: sum.Quarantined,
		LastOutcome: outcome,
	})
	m.sample(true)
	m.events.Close()

	if m.sink == nil {
		return nil
	}
	m.mu.Lock()
	rows := m.rows
	m.rows = nil
	m.mu.Unlock()
	if err := m.sink.PutRunMetrics(rows); err != nil {
		return fmt.Errorf("core: campaign %s: persist run metrics: %w", sum.Campaign, err)
	}
	m.r.logger().Debug("run metrics persisted",
		"campaign", sum.Campaign, "runId", m.runID, "rows", len(rows))
	return nil
}

// detectedOf totals the summary's per-mechanism detections.
func detectedOf(sum Summary) int {
	n := 0
	for _, v := range sum.Detections {
		n += v
	}
	return n
}

// logger returns the runner's logger, or a discard logger when none is set,
// so engine code logs unconditionally without nil checks.
func (r *Runner) logger() *slog.Logger {
	if r.Logger != nil {
		return r.Logger
	}
	return discardLogger
}

var discardLogger = slog.New(discardHandler{})

// discardHandler is a no-op slog.Handler. (slog.DiscardHandler exists from
// Go 1.24; this module's language version predates it.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
