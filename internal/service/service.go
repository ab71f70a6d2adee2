package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sync"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/target"
	"goofi/internal/vfs"
)

// Campaign lifecycle states.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusCancelled   = "cancelled"
	StatusInterrupted = "interrupted" // stopped by drain; resumes on restart
)

// queueFile is the drain-time persistence of not-yet-finished campaigns,
// written durably under the data dir and re-enqueued on the next start.
const queueFile = "queue.json"

// Submission failure sentinels; the HTTP layer maps them onto status codes.
var (
	// ErrQueueFull: the bounded queue rejected the submission (429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining: the server is shutting down and accepts nothing (503).
	ErrDraining = errors.New("service: draining")
	// ErrExists: the campaign id is already submitted (409).
	ErrExists = errors.New("service: campaign already exists")
	// ErrNotFound: no such campaign (404).
	ErrNotFound = errors.New("service: campaign not found")
)

// Options configures a Server.
type Options struct {
	// DataDir is the service state root: one subdirectory per tenant, each
	// holding one database file per campaign, plus the drain queue file.
	// A campaign's file is written once per run, by an atomic image rename
	// when the campaign completes, fails or is drained.
	DataDir string
	// FS is the filesystem seam under every database and the queue file;
	// nil means the real filesystem. Tests substitute vfs.Faulty here to
	// storm the whole service with storage faults.
	FS vfs.FS
	// QueueLimit bounds how many campaigns may wait behind the running
	// ones; submissions beyond it get 429 + Retry-After. 0 means 8.
	QueueLimit int
	// Concurrency is how many campaigns execute at once — campaigns, not
	// workers: each campaign may additionally run several workers. 0 means
	// 2.
	Concurrency int
	// MonitorInterval is the live event-frame period; 0 means 250ms.
	MonitorInterval time.Duration
	// RetryAfter is the client backoff hint sent with 429; 0 means 1s.
	RetryAfter time.Duration
	// Logger receives service diagnostics; nil discards.
	Logger *slog.Logger
}

// job is one submitted campaign and everything the service tracks about it.
// All mutable fields are guarded by the server mutex.
type job struct {
	spec Spec
	c    core.Campaign // validated at submit time

	status    string
	errMsg    string
	summary   core.Summary
	report    analysis.Report // classified at completion; set with StatusDone
	reportErr error
	cancel    context.CancelFunc // non-nil while running
	cancelled bool               // DELETE requested (distinguishes from drain)
	done      chan struct{}      // closed on any terminal state

	events *obsv.Broadcaster
	rec    *obsv.Recorder
}

// Server is the multi-tenant campaign daemon. Create with New, expose over
// HTTP via ServeHTTP (it implements http.Handler), and shut down with Drain.
type Server struct {
	opts Options
	fsys vfs.FS
	log  *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for stable listings
	queue    []*job
	running  int
	draining bool

	wake      chan struct{}
	stop      chan struct{}
	schedDone chan struct{}
	wg        sync.WaitGroup

	// handler is the HTTP mux, built once at New — rebuilding per request
	// would re-register every route on every call.
	handler http.Handler
	// httpRec records service-level metrics: per-route/status request
	// latency histograms and process runtime gauges, folded into the
	// /metrics exposition without a campaign label.
	httpRec *obsv.Recorder
}

// New builds a server over its data directory, re-enqueues any campaigns a
// previous drain persisted, and starts the scheduler.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, errors.New("service: Options.DataDir is required")
	}
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 8
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 2
	}
	if opts.MonitorInterval <= 0 {
		opts.MonitorInterval = 250 * time.Millisecond
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(discardHandler{})
	}
	// Directory creation stays on the host OS: the vfs seam covers file
	// operations (the failure modes that matter for durability), not tree
	// structure.
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create data dir: %w", err)
	}
	s := &Server{
		opts:      opts,
		fsys:      opts.FS,
		log:       opts.Logger,
		jobs:      map[string]*job{},
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		schedDone: make(chan struct{}),
		httpRec:   obsv.New(obsv.Options{}),
	}
	s.handler = s.buildHandler()
	if err := s.loadQueue(); err != nil {
		return nil, err
	}
	go s.scheduler()
	s.nudge()
	return s, nil
}

// Submit validates and enqueues one campaign. The returned error is one of
// the sentinels above or a validation error.
func (s *Server) Submit(spec Spec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	c, err := spec.campaign()
	if err != nil {
		return Status{}, err
	}
	j := &job{
		spec:   spec,
		c:      c,
		status: StatusQueued,
		done:   make(chan struct{}),
		events: obsv.NewBroadcaster(),
		rec:    obsv.New(obsv.Options{Journal: true}),
	}
	id := spec.ID()

	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		return Status{}, ErrDraining
	case s.jobs[id] != nil:
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrExists, id)
	case len(s.queue) >= s.opts.QueueLimit:
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	st := s.statusLocked(j)
	s.mu.Unlock()

	s.log.Info("campaign submitted", "id", id,
		"experiments", spec.Experiments, "shards", spec.Shards, "workers", spec.Workers)
	s.nudge()
	return st, nil
}

// Cancel ends a campaign: a queued one is dequeued, a running one is stopped
// after its in-flight experiment (its logged rows remain, so a later
// submission of the same id resumes), and a terminal one is forgotten so the
// id becomes submittable again.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.status {
	case StatusQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.status = StatusCancelled
		j.cancelled = true
		close(j.done)
		j.events.Close()
	case StatusRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	default: // terminal: forget, freeing the id
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.log.Info("campaign cancel", "id", id, "status", st.Status)
	return st, nil
}

// Status reports one campaign.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.statusLocked(j), nil
}

// List reports every known campaign in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, s.statusLocked(j))
		}
	}
	return out
}

// Events returns the campaign's event broadcaster for streaming.
func (s *Server) Events(id string) (*obsv.Broadcaster, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.events, nil
}

// Snapshots collects every campaign's metrics snapshot for the multiplexed
// /metrics exposition.
func (s *Server) Snapshots() map[string]obsv.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]obsv.Snapshot, len(s.jobs))
	for id, j := range s.jobs {
		out[id] = j.rec.Snapshot()
	}
	return out
}

// statusLocked renders a job's status; the server mutex must be held.
func (s *Server) statusLocked(j *job) Status {
	st := Status{
		ID:       j.spec.ID(),
		Tenant:   j.spec.Tenant,
		Campaign: j.spec.Campaign,
		Status:   j.status,
		Error:    j.errMsg,
		Shards:   j.spec.Shards,
		Workers:  j.spec.Workers,
		Total:    j.spec.Experiments,
	}
	if j.status == StatusQueued {
		for i, q := range s.queue {
			if q == j {
				st.QueuePosition = i + 1
				break
			}
		}
	}
	if ev, ok := j.events.Last(); ok {
		st.Done = ev.Done
		st.Detected = ev.Detected
		st.Retries = ev.Retries
		st.Hangs = ev.Hangs
		st.Quarantined = ev.Quarantined
	}
	switch j.status {
	case StatusDone, StatusInterrupted, StatusCancelled:
		st.Done = j.summary.Completed + j.summary.Skipped
		st.Detected = detectedOf(j.summary)
		st.Retries = j.summary.Retries
		st.Hangs = j.summary.Hangs
		st.Quarantined = j.summary.Quarantined
	}
	return st
}

// Status is the JSON status document of one campaign.
type Status struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Campaign string `json:"campaign"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	// QueuePosition is 1-based while queued; 0 otherwise.
	QueuePosition int `json:"queuePosition,omitempty"`
	Done          int `json:"done"`
	Total         int `json:"total"`
	Detected      int `json:"detected"`
	Retries       int `json:"retries"`
	Hangs         int `json:"hangs"`
	Quarantined   int `json:"quarantined"`
	Shards        int `json:"shards,omitempty"`
	Workers       int `json:"workers,omitempty"`
}

func detectedOf(sum core.Summary) int {
	n := 0
	for _, v := range sum.Detections {
		n += v
	}
	return n
}

// nudge wakes the scheduler without blocking.
func (s *Server) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// scheduler dispatches queued jobs while capacity allows, until Drain stops
// it.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			if s.draining || s.running >= s.opts.Concurrency || len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			j := s.queue[0]
			s.queue = s.queue[1:]
			j.status = StatusRunning
			ctx, cancel := context.WithCancel(context.Background())
			j.cancel = cancel
			s.running++
			s.wg.Add(1)
			s.mu.Unlock()
			go s.execute(ctx, cancel, j)
		}
	}
}

// execute runs one campaign to a terminal state.
func (s *Server) execute(ctx context.Context, cancel context.CancelFunc, j *job) {
	defer s.wg.Done()
	defer cancel()
	id := j.spec.ID()
	s.log.Info("campaign starting", "id", id)
	sum, err := s.runCampaign(ctx, j)

	s.mu.Lock()
	j.summary = sum
	j.cancel = nil
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, core.ErrStopped):
		if j.cancelled {
			j.status = StatusCancelled
		} else {
			// Drain interrupted it; the saved campaign file holds every
			// logged row and the queue file re-enqueues the spec for resume
			// on restart.
			j.status = StatusInterrupted
		}
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	st := j.status
	close(j.done)
	s.running--
	s.mu.Unlock()

	// The runner closes the broadcaster on a completed run; closing again is
	// a no-op, but a run that failed before monitoring started would
	// otherwise leave watchers hanging.
	j.events.Close()
	s.log.Info("campaign finished", "id", id, "status", st,
		"completed", sum.Completed, "skipped", sum.Skipped, "err", errStr(err))
	s.nudge()
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// tenantDBPath is the campaign's database file under its tenant directory.
func (s *Server) tenantDBPath(spec Spec) string {
	return filepath.Join(s.opts.DataDir, spec.Tenant, spec.Campaign+".db")
}

// openTenantStore loads the campaign's database file, or starts an empty
// store when the file does not exist yet; nothing is written before Save.
func (s *Server) openTenantStore(spec Spec) (*dbase.Store, error) {
	dir := filepath.Join(s.opts.DataDir, spec.Tenant)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: tenant dir %s: %w", spec.Tenant, err)
	}
	store, err := dbase.OpenStoreFS(s.tenantDBPath(spec), s.fsys)
	if err != nil {
		return nil, fmt.Errorf("service: open store for %s: %w", spec.ID(), err)
	}
	return store, nil
}

// buildTarget mints the campaign's target and factory, chaos-wrapped when the
// spec asks for it.
func buildTarget(spec Spec) (target.Operations, target.Factory, error) {
	var ops target.Operations = target.NewDefaultThorTarget()
	factory := target.DefaultThorFactory()
	if spec.Chaos != "" {
		cfg, err := target.ParseFlakyConfig(spec.Chaos)
		if err != nil {
			return nil, nil, err
		}
		ops = target.NewFlaky(ops, cfg)
		factory = target.FlakyFactory(factory, cfg)
	}
	return ops, factory, nil
}

// ensureTarget registers the target system unless the store already holds
// it — RegisterTarget's replace semantics would otherwise collide with the
// foreign key from a resumed campaign's CampaignData row.
func ensureTarget(store *dbase.Store, ops target.Operations) error {
	if _, err := store.GetTargetSystem(ops.Name()); err == nil {
		return nil
	} else if !errors.Is(err, dbase.ErrNotFound) {
		return err
	}
	return core.RegisterTarget(store, ops, "campaign service target")
}

// runCampaign executes one campaign against its campaign store: open,
// register, run, classify, save, close. The store is a plain file-backed one:
// writes go to memory and become durable in one atomic image rename when
// Save runs, whether the campaign completed, failed or was drained. It is
// touched by one goroutine at a time — this one, and the runner's logging
// stage while Run is in progress — since the SQL engine is not verified
// thread-safe.
func (s *Server) runCampaign(ctx context.Context, j *job) (core.Summary, error) {
	store, err := s.openTenantStore(j.spec)
	if err != nil {
		return core.Summary{}, err
	}
	ops, factory, err := buildTarget(j.spec)
	if err != nil {
		store.Close()
		return core.Summary{}, err
	}
	if err := ensureTarget(store, ops); err != nil {
		store.Close()
		return core.Summary{}, err
	}
	store.SetRecorder(j.rec)

	r := core.NewRunner(ops, store, j.c)
	r.Factory = factory
	r.Recorder = j.rec
	r.Events = j.events
	r.MonitorInterval = s.opts.MonitorInterval
	r.Logger = s.log
	sum, err := r.Run(ctx)

	// Classify a completed campaign while its store is open; the report is
	// served from the job and its AnalysisResult rows are saved with the
	// rest, as `goofi analyze` leaves them.
	if err == nil {
		rep, rerr := analysis.Classify(store, j.spec.Campaign)
		s.mu.Lock()
		j.report, j.reportErr = rep, rerr
		s.mu.Unlock()
	}

	// Drain the provenance journal into the campaign store before saving.
	if _, derr := store.PutTraceJournal(j.spec.Campaign, j.rec.Journal()); derr != nil && err == nil {
		err = derr
	}

	// Whatever happened, persist what the store holds: an interrupted
	// campaign's rows are exactly what resume needs.
	if serr := store.Save(); serr != nil && err == nil {
		err = serr
	}
	if cerr := store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return sum, err
}

// Drain shuts the service down gracefully: new submissions are rejected,
// running campaigns are stopped after their in-flight experiments (their
// campaign files saved and closed), and the interrupted plus still-queued
// specs are written durably to the queue file so the next start resumes
// them. ctx bounds the wait for running campaigns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.schedDone
		return nil
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.status == StatusRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	close(s.stop)

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	<-s.schedDone

	return s.persistQueue()
}

// persistQueue writes the resume set — interrupted campaigns first, then the
// queue in order — durably to the queue file.
func (s *Server) persistQueue() error {
	s.mu.Lock()
	var specs []Spec
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.status == StatusInterrupted {
			specs = append(specs, j.spec)
		}
	}
	for _, j := range s.queue {
		specs = append(specs, j.spec)
	}
	s.mu.Unlock()

	path := filepath.Join(s.opts.DataDir, queueFile)
	if len(specs) == 0 {
		// Nothing to resume; a stale file from an earlier drain must not
		// resurrect campaigns.
		if err := s.fsys.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("queue file cleanup failed", "err", err)
		}
		return nil
	}
	data, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode queue: %w", err)
	}
	if err := writeDurableRetry(s.fsys, path, data); err != nil {
		return fmt.Errorf("service: persist queue: %w", err)
	}
	s.log.Info("queue persisted for resume", "campaigns", len(specs))
	return nil
}

// loadQueue re-enqueues the campaigns a previous drain persisted.
func (s *Server) loadQueue() error {
	path := filepath.Join(s.opts.DataDir, queueFile)
	data, err := s.fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read queue file: %w", err)
	}
	var specs []Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("service: queue file corrupt: %w", err)
	}
	for _, spec := range specs {
		c, err := spec.campaign()
		if err != nil {
			s.log.Warn("dropping unresumable queued campaign", "id", spec.ID(), "err", err)
			continue
		}
		j := &job{
			spec:   spec,
			c:      c,
			status: StatusQueued,
			done:   make(chan struct{}),
			events: obsv.NewBroadcaster(),
			rec:    obsv.New(obsv.Options{Journal: true}),
		}
		s.jobs[spec.ID()] = j
		s.order = append(s.order, spec.ID())
		s.queue = append(s.queue, j)
	}
	if len(specs) > 0 {
		s.log.Info("resuming campaigns from previous drain", "campaigns", len(specs))
	}
	return nil
}

// writeDurableRetry is WriteFileDurable with the same bounded transient-fault
// retry the store layer applies — the queue file must survive a flaky disk.
func writeDurableRetry(fsys vfs.FS, path string, data []byte) error {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = vfs.WriteFileDurable(fsys, path, data); err == nil {
			return nil
		}
		if !vfs.IsTransient(err) {
			return err
		}
		time.Sleep(time.Millisecond << attempt)
	}
	return err
}

// discardHandler is a no-op slog.Handler (slog.DiscardHandler needs Go 1.24;
// the module's language version predates it).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
