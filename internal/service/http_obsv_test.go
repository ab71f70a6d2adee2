package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"goofi/internal/obsv"
)

// TestErrorStatusMapping pins every service sentinel onto its HTTP status:
// the client contract `goofi submit` and `goofi watch` retry against.
func TestErrorStatusMapping(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	cases := []struct {
		err  error
		code int
	}{
		{ErrNotFound, http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", ErrNotFound), http.StatusNotFound},
		{ErrExists, http.StatusConflict},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{errors.New("anything else"), http.StatusBadRequest},
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		s.writeError(rr, c.err)
		if rr.Code != c.code {
			t.Errorf("writeError(%v) status = %d, want %d", c.err, rr.Code, c.code)
		}
		var doc map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil || doc["error"] == "" {
			t.Errorf("writeError(%v) body = %q, want JSON problem document", c.err, rr.Body)
		}
		if c.code == http.StatusTooManyRequests && rr.Header().Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	}
}

// syncBuffer makes a log sink safe to read while service goroutines are
// still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDPropagation: a client-supplied X-Goofi-Request-Id is echoed
// on the response, appears in the service log, and lands in the campaign's
// http-request trace events; without one the service generates an id.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	s := newTestServer(t, Options{
		DataDir: t.TempDir(),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := testSpec("acme", "rid", 4, 1)
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", srv.URL+"/campaigns", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "rid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "rid-test-42" {
		t.Fatalf("response %s = %q, want the client-supplied id echoed", RequestIDHeader, got)
	}
	if !strings.Contains(logBuf.String(), "rid-test-42") {
		t.Fatalf("request id missing from service log:\n%s", logBuf.String())
	}
	waitStatus(t, s, "acme/rid")

	// A status poll for the campaign lands in its journal with the id.
	req, _ = http.NewRequest("GET", srv.URL+"/campaigns/acme/rid", nil)
	req.Header.Set(RequestIDHeader, "rid-test-43")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	found := false
	for _, ev := range traceEventsOf(t, srv.URL, "acme/rid") {
		if ev.Kind == obsv.EvHTTPRequest && strings.Contains(ev.Detail, "id=rid-test-43") {
			if ev.TID != obsv.HTTPTID {
				t.Fatalf("http-request event on tid %d, want %d", ev.TID, obsv.HTTPTID)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("client request id never reached the campaign's trace events")
	}

	// No client id: the middleware mints one.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no generated request id on the response")
	}
}

// traceEventsOf streams a campaign's NDJSON trace endpoint back into events.
func traceEventsOf(t *testing.T, base, id string) []obsv.WideEvent {
	t.Helper()
	resp, err := http.Get(base + "/campaigns/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var events []obsv.WideEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev obsv.WideEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestTraceEndpoint: the trace stream of a finished campaign reconstructs
// the engine's causal events — plan draws, attempts, row durability — in
// causal order, and unknown campaigns 404. A campaign store has no WAL, so
// every experiment's row-durable event says synced=false: the row becomes
// durable at the campaign's image save, which no event names.
func TestTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := testSpec("acme", "traced", 6, 3)
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, "acme/traced")

	events := traceEventsOf(t, srv.URL, "acme/traced")
	kinds := map[string]int{}
	attempted, durable := map[string]bool{}, map[string]bool{}
	for i, ev := range events {
		kinds[ev.Kind]++
		if i > 0 && events[i].TimeNs < events[i-1].TimeNs {
			t.Fatalf("events out of causal order at %d: %d after %d", i, events[i].TimeNs, events[i-1].TimeNs)
		}
		switch ev.Kind {
		case obsv.EvAttempt:
			attempted[ev.Experiment] = true
		case obsv.EvRowDurable:
			durable[ev.Experiment] = true
			if strings.Contains(ev.Detail, "synced=true") {
				t.Fatalf("row-durable event of %s claims a WAL sync: %q", ev.Experiment, ev.Detail)
			}
		}
	}
	for _, kind := range []string{obsv.EvPlan, obsv.EvAttempt, obsv.EvRowDurable} {
		if kinds[kind] == 0 {
			t.Fatalf("trace stream lacks %q events; got %v", kind, kinds)
		}
	}
	for exp := range attempted {
		if !durable[exp] {
			t.Fatalf("experiment %s has no row-durable event; got %v", exp, kinds)
		}
	}
	if kinds[obsv.EvAttempt] < spec.Experiments {
		t.Fatalf("only %d attempt events for %d experiments", kinds[obsv.EvAttempt], spec.Experiments)
	}

	resp, err := http.Get(srv.URL + "/campaigns/acme/ghost/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign trace status = %d", resp.StatusCode)
	}
}

// TestHealthzFields: the health document carries the build version and live
// scheduler state.
func TestHealthzFields(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var doc struct {
		Status     string `json:"status"`
		Version    string `json:"version"`
		QueueDepth *int   `json:"queueDepth"`
		Running    *int   `json:"running"`
		Draining   *bool  `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Version == "" {
		t.Fatalf("healthz doc = %+v", doc)
	}
	if doc.QueueDepth == nil || doc.Running == nil || doc.Draining == nil {
		t.Fatalf("healthz doc missing scheduler fields: %+v", doc)
	}
}

// TestMetricsHTTPFamilies: request latencies fold into one
// goofi_http_request_duration_seconds family labelled by route and status,
// and the runtime gauges ride along — all label-free service-level series
// next to the campaign-labelled engine metrics.
func TestMetricsHTTPFamilies(t *testing.T) {
	s := newTestServer(t, Options{DataDir: t.TempDir()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/campaigns", "/campaigns/no/body"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE goofi_http_request_duration_seconds histogram",
		`goofi_http_request_duration_seconds_count{route="GET /healthz",status="200"}`,
		`goofi_http_request_duration_seconds_count{route="GET /campaigns/{tenant}/{name}",status="404"}`,
		"goofi_runtime_goroutines",
		"goofi_runtime_heap_inuse_bytes",
		"goofi_runtime_gc_pause_total_ns",
		"goofi_runtime_gc_cycles",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
	if strings.Count(out, "# TYPE goofi_http_request_duration_seconds histogram") != 1 {
		t.Error("http histogram family emitted more than once")
	}
}
