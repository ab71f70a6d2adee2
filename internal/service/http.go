package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
)

// RequestIDHeader carries the request id: honoured when the client sends one,
// generated otherwise, always echoed on the response and propagated into the
// request log line and the campaign's trace events.
const RequestIDHeader = "X-Goofi-Request-Id"

// buildHandler assembles the service's HTTP API once, at New:
//
//	POST   /campaigns                           submit (202, 400, 409, 429, 503)
//	GET    /campaigns                           list all campaigns
//	GET    /campaigns/{tenant}/{name}           status document
//	DELETE /campaigns/{tenant}/{name}           cancel / forget
//	GET    /campaigns/{tenant}/{name}/events    live NDJSON CampaignEvent stream
//	GET    /campaigns/{tenant}/{name}/report    analysis report (done campaigns)
//	GET    /campaigns/{tenant}/{name}/trace     provenance wide events (NDJSON)
//	GET    /metrics                             multiplexed Prometheus exposition
//	GET    /healthz                             liveness + build/queue document
//
// Every route runs under the instrument middleware: request-id echo, a
// per-route/status latency histogram, and an http-request trace event on
// campaign-scoped routes.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /campaigns", s.handleSubmit},
		{"GET /campaigns", s.handleList},
		{"GET /campaigns/{tenant}/{name}", s.handleStatus},
		{"DELETE /campaigns/{tenant}/{name}", s.handleCancel},
		{"GET /campaigns/{tenant}/{name}/events", s.handleEvents},
		{"GET /campaigns/{tenant}/{name}/report", s.handleReport},
		{"GET /campaigns/{tenant}/{name}/trace", s.handleTrace},
		{"GET /metrics", s.handleMetrics},
		{"GET /healthz", s.handleHealthz},
	} {
		mux.HandleFunc(r.pattern, s.instrument(r.pattern, r.h))
	}
	return mux
}

// Handler returns the HTTP API. The mux is built once in New and reused —
// constructing it per request would re-register every route on every call.
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP makes the server itself mountable as an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.handler.ServeHTTP(w, req)
}

// instrument wraps one route's handler with the service middleware:
// request-id (read or generate, echo, log), the per-route/status latency
// histogram behind /metrics, and an http-request wide event into the
// campaign's trace journal when the route names one.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rid := req.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, req)
		status := sw.status()
		s.httpRec.ObserveSince(obsv.HTTPHistName(pattern, status), start)
		s.log.Info("http request",
			"requestId", rid, "route", pattern, "status", status, "dur", time.Since(start))
		s.emitHTTPTrace(req, pattern, rid, status, start)
	}
}

// newRequestID mints a 16-hex-digit random request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unidentified"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the middleware. It implements
// http.Flusher unconditionally so the NDJSON streaming handlers keep their
// flush-per-frame behaviour through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// emitHTTPTrace attributes one served request to the campaign it concerns, so
// the provenance timeline runs end to end: HTTP request → experiment attempts
// → logged rows.
func (s *Server) emitHTTPTrace(req *http.Request, pattern, rid string, status int, start time.Time) {
	tenant, name := req.PathValue("tenant"), req.PathValue("name")
	if tenant == "" || name == "" {
		return
	}
	s.mu.Lock()
	j := s.jobs[tenant+"/"+name]
	s.mu.Unlock()
	if j == nil {
		return
	}
	jl := j.rec.Journal()
	if jl == nil {
		return
	}
	jl.Emit(obsv.WideEvent{
		Kind:     obsv.EvHTTPRequest,
		TID:      obsv.HTTPTID,
		Campaign: j.spec.Campaign,
		TimeNs:   start.UnixNano(),
		DurNs:    time.Since(start).Nanoseconds(),
		Detail:   fmt.Sprintf("id=%s route=%s status=%d", rid, pattern, status),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders one error as a JSON problem document, mapping the
// service sentinels onto their status codes.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After",
			strconv.Itoa(int(max(s.opts.RetryAfter.Seconds(), 1))))
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid spec: " + err.Error()})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func reqID(req *http.Request) string {
	return req.PathValue("tenant") + "/" + req.PathValue("name")
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	st, err := s.Status(reqID(req))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	st, err := s.Cancel(reqID(req))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the campaign's CampaignEvent frames as NDJSON until
// the campaign finishes or the client goes away. A subscriber joining late
// immediately receives the latest frame (the final one, for a finished
// campaign) — the replay contract goofi watch's reconnect relies on.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	b, err := s.Events(reqID(req))
	if err != nil {
		s.writeError(w, err)
		return
	}
	ch, cancel := b.Subscribe(16)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-req.Context().Done():
			return
		}
	}
}

// handleReport returns the analysis report of a finished campaign, which
// was classified when the campaign completed.
func (s *Server) handleReport(w http.ResponseWriter, req *http.Request) {
	id := reqID(req)
	s.mu.Lock()
	j := s.jobs[id]
	var status string
	var rep analysis.Report
	var err error
	if j != nil {
		status, rep, err = j.status, j.report, j.reportErr
	}
	s.mu.Unlock()
	switch {
	case j == nil:
		s.writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
	case status != StatusDone:
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("campaign %s is %s, not %s", id, status, StatusDone),
		})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, rep)
	}
}

// handleTrace streams the campaign's provenance wide events as NDJSON in
// causal order. While the campaign runs (or before its store was saved), the
// live journal answers; afterwards the persisted ExperimentTraceEvents rows
// are read back from the tenant store.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := reqID(req)
	s.mu.Lock()
	j := s.jobs[id]
	var spec Spec
	var running bool
	if j != nil {
		spec = j.spec
		running = j.status == StatusQueued || j.status == StatusRunning
	}
	s.mu.Unlock()
	if j == nil {
		s.writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		return
	}
	events := j.rec.Journal().Events()
	if len(events) == 0 && !running {
		// The journal is empty (e.g. the service restarted since the run);
		// fall back to the persisted rows. The campaign store is closed once a
		// campaign finishes, so reopening read-only is safe here.
		store, err := dbase.OpenStoreFS(s.tenantDBPath(spec), s.fsys)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		defer store.Close()
		if events, err = store.TraceEvents(spec.Campaign); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	obsv.SortEvents(events)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}

// serviceVersion is the build's module version (or VCS revision) for the
// health document, resolved once.
var serviceVersion = func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version := bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			version += "+" + kv.Value
			break
		}
	}
	if version == "" || version == "(devel)" {
		return "devel"
	}
	return version
}()

// handleHealthz answers the liveness probe with the build version and the
// scheduler's vital signs: queue depth, running campaign count, drain state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	depth, running, draining := len(s.queue), s.running, s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"version":    serviceVersion,
		"queueDepth": depth,
		"running":    running,
		"draining":   draining,
	})
}

// handleMetrics multiplexes every campaign's recorder snapshot onto one
// Prometheus exposition, distinguished by the campaign label; the service's
// own recorder (request latency histograms, runtime gauges) joins under the
// empty key, carrying no campaign label.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.sampleRuntime()
	snaps := s.Snapshots()
	snaps[""] = s.httpRec.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obsv.WritePrometheusMulti(w, snaps); err != nil {
		s.log.Warn("prometheus exposition failed", "err", err)
	}
}

// sampleRuntime refreshes the process gauges at scrape time: goroutines, heap
// in use, cumulative GC pause time and collection count.
func (s *Server) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.httpRec.SetGauge("runtime.goroutines", int64(runtime.NumGoroutine()))
	s.httpRec.SetGauge("runtime.heap.inuse.bytes", int64(ms.HeapInuse))
	s.httpRec.SetGauge("runtime.gc.pause.total.ns", int64(ms.PauseTotalNs))
	s.httpRec.SetGauge("runtime.gc.cycles", int64(ms.NumGC))
}
