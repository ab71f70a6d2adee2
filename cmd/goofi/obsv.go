// Observability surface of the CLI: the -metrics-out/-trace-out/-debug-addr
// flags of goofi run, the debug HTTP server (expvar, pprof, Prometheus
// /metrics, the /campaign/events live stream), and the goofi stats
// subcommand that renders or diffs metrics snapshots.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"

	"goofi/internal/obsv"
)

// writeObsv dumps the recorder's metrics snapshot and Chrome trace to the
// requested files. A nil recorder (observability off) is a no-op.
func writeObsv(rec *obsv.Recorder, metricsPath, tracePath string) error {
	if rec == nil {
		return nil
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := rec.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("metrics snapshot written", "path", metricsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("trace written; load in chrome://tracing or https://ui.perfetto.dev",
			"path", tracePath)
	}
	return nil
}

// The expvar registry is process-global and Publish panics on duplicates, so
// the "goofi" variable is published once and reads through an atomic pointer
// to whichever recorder the current run wired up. The debug server itself
// also lives for the process, so the /metrics and /campaign/events handlers
// read the current recorder and broadcaster through the same pattern. This
// keeps repeated run() invocations (the test suite drives the CLI
// in-process) safe.
var (
	debugPublish sync.Once
	debugRec     atomic.Pointer[obsv.Recorder]
	debugEvents  atomic.Pointer[obsv.Broadcaster]
)

// newDebugMux builds the debug server's routes: expvar under /debug/vars,
// pprof under /debug/pprof/, the Prometheus exposition at /metrics, and the
// live campaign event stream (JSON lines) at /campaign/events. Factored out
// of startDebugServer so tests can drive the handlers through httptest.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", metricsHandler)
	mux.HandleFunc("/campaign/events", eventsHandler)
	return mux
}

// metricsHandler serves the current recorder's snapshot in the Prometheus
// text exposition format.
func metricsHandler(w http.ResponseWriter, _ *http.Request) {
	rec := debugRec.Load()
	if rec == nil {
		http.Error(w, "no recorder active", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obsv.WritePrometheus(w, rec.Snapshot()); err != nil {
		logger.Warn("prometheus exposition failed", "err", err)
	}
}

// eventsHandler streams campaign events as JSON lines until the campaign
// finishes (the broadcaster closes) or the client goes away. A subscriber
// joining mid-campaign receives the latest frame immediately.
func eventsHandler(w http.ResponseWriter, req *http.Request) {
	b := debugEvents.Load()
	if b == nil {
		http.Error(w, "no campaign event stream active", http.StatusServiceUnavailable)
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

// startDebugServer serves the debug routes of newDebugMux on addr for the
// remainder of the process and points them at rec and events. It returns the
// bound address so ":0" is usable.
func startDebugServer(addr string, rec *obsv.Recorder, events *obsv.Broadcaster) (string, error) {
	debugRec.Store(rec)
	debugEvents.Store(events)
	debugPublish.Do(func() {
		expvar.Publish("goofi", expvar.Func(func() any {
			if r := debugRec.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, newDebugMux()) // lives for the process, like net/http/pprof's default
	return ln.Addr().String(), nil
}

// cmdStats renders a metrics snapshot written by goofi run -metrics-out —
// per-phase time breakdown, store latency histograms, counters and gauges —
// or, with -diff, compares two snapshots (counter deltas and histogram
// quantile shifts).
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	metricsPath := fs.String("metrics", "", "metrics snapshot file from goofi run -metrics-out")
	diffPath := fs.String("diff", "", `compare against this earlier snapshot: goofi stats -diff old.json new.json`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffPath != "" {
		newPath := *metricsPath
		if newPath == "" {
			if fs.NArg() != 1 {
				return fmt.Errorf("stats -diff needs two snapshots: goofi stats -diff old.json new.json")
			}
			newPath = fs.Arg(0)
		}
		old, err := loadSnapshot(*diffPath)
		if err != nil {
			return err
		}
		cur, err := loadSnapshot(newPath)
		if err != nil {
			return err
		}
		obsv.DiffSnapshots(old, cur).Format(os.Stdout)
		return nil
	}
	if *metricsPath == "" {
		return fmt.Errorf("-metrics is required")
	}
	snap, err := loadSnapshot(*metricsPath)
	if err != nil {
		return err
	}
	snap.Format(os.Stdout)
	return nil
}

// loadSnapshot reads one -metrics-out JSON dump.
func loadSnapshot(path string) (obsv.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return obsv.Snapshot{}, err
	}
	defer f.Close()
	snap, err := obsv.ParseSnapshot(f)
	if err != nil {
		return obsv.Snapshot{}, fmt.Errorf("stats: %s is not a metrics snapshot: %w", path, err)
	}
	return snap, nil
}
