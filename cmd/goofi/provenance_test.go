package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goofi/internal/dbase"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				done <- sb.String()
				return
			}
		}
	}()
	defer func() {
		os.Stdout = old
		w.Close()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestCLIProvenanceFlow drives the acceptance scenario end to end through
// the CLI: a chaos + storage-chaos campaign over a WAL store run with
// -provenance, then `goofi trace CAMPAIGN` for the rollup, `goofi trace
// CAMPAIGN EXPERIMENT` for a retried experiment's causal chain, and the
// Chrome trace export.
func TestCLIProvenanceFlow(t *testing.T) {
	db := dbPath(t)
	if err := run([]string{"configure", "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setup", "-db", db,
		"-campaign", "prov", "-workload", "bubblesort",
		"-technique", "scifi", "-locations", "chain:internal.core",
		"-n", "8", "-seed", "4", "-tmin", "10", "-tmax", "1400"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-db", db, "-campaign", "prov", "-quiet",
		"-provenance", "-wal",
		"-chaos", "err=0.01,seed=7", "-retries", "10", "-retry-backoff", "200us",
		"-storage-chaos", "write=0.02,sync=0.02,seed=11"}); err != nil {
		t.Fatalf("provenance run: %v", err)
	}

	// Pick a retried experiment out of the persisted events.
	store, err := dbase.OpenStore(db)
	if err != nil {
		t.Fatal(err)
	}
	events, err := store.TraceEvents("prov")
	if err != nil {
		t.Fatal(err)
	}
	retried := ""
	for _, ev := range events {
		if ev.Kind == "retry-backoff" && ev.Experiment != "" {
			retried = ev.Experiment
			break
		}
	}
	if retried == "" {
		t.Fatalf("no retried experiment among %d persisted events; retune the chaos seed", len(events))
	}

	summary := captureStdout(t, func() {
		if err := run([]string{"trace", "-db", db, "prov"}); err != nil {
			t.Errorf("trace rollup: %v", err)
		}
	})
	if !strings.Contains(summary, retried) || !strings.Contains(summary, "attempts") {
		t.Fatalf("trace rollup missing %s:\n%s", retried, summary)
	}

	chrome := filepath.Join(t.TempDir(), "prov-trace.json")
	timeline := captureStdout(t, func() {
		if err := run([]string{"trace", "-db", db, "-chrome", chrome, "prov", retried}); err != nil {
			t.Errorf("trace timeline: %v", err)
		}
	})
	for _, want := range []string{"plan", "retry-backoff", "outcome=err", "outcome=ok",
		"row-durable", "wal-commit", "batch="} {
		if !strings.Contains(timeline, want) {
			t.Fatalf("timeline of %s lacks %q:\n%s", retried, want, timeline)
		}
	}

	// The bare experiment name resolves under the campaign too.
	short := strings.TrimPrefix(retried, "prov/")
	if out := captureStdout(t, func() {
		if err := run([]string{"trace", "-db", db, "prov", short}); err != nil {
			t.Errorf("trace short name: %v", err)
		}
	}); !strings.Contains(out, retried) {
		t.Fatalf("short experiment name %q did not resolve:\n%s", short, out)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}

	// A campaign that never recorded provenance says so.
	if err := run([]string{"trace", "-db", db, "ghost"}); err == nil {
		t.Fatal("trace of a provenance-less campaign should error")
	}
}

// TestSubmitRetry429: the submit client retries queue-full responses with
// the server's Retry-After hint and succeeds once a slot frees up; when the
// budget runs out the last 429 surfaces as the error.
func TestSubmitRetry429(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"service: queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"acme/c1"}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	args := []string{"submit", "-addr", addr,
		"-tenant", "acme", "-campaign", "c1", "-workload", "bubblesort",
		"-locations", "chain:internal.core", "-n", "4"}
	if err := run(append(args, "-retries", "3")); err != nil {
		t.Fatalf("submit with retry budget: %v", err)
	}
	if hits != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 429s then 202)", hits)
	}

	hits = -100 // the next two submissions both get 429
	if err := run(append(args, "-retries", "1")); err == nil {
		t.Fatal("submit with exhausted budget should fail")
	} else if !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhausted budget error = %v, want the 429 status surfaced", err)
	}
}
