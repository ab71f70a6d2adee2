package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// HistBucket is one populated power-of-two histogram bucket: Count
// observations v with UpperNs/2 < v <= UpperNs (bucket counts, not
// cumulative). The bounds are the exact bucket edges of Histogram, so an
// exporter can rebuild a faithful cumulative distribution.
type HistBucket struct {
	UpperNs int64 `json:"upperNs"`
	Count   int64 `json:"count"`
}

// HistogramStats is the exported snapshot of one histogram.
type HistogramStats struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"totalNs"`
	MinNs   int64  `json:"minNs"`
	MaxNs   int64  `json:"maxNs"`
	P50Ns   int64  `json:"p50Ns"`
	P95Ns   int64  `json:"p95Ns"`
	P99Ns   int64  `json:"p99Ns"`
	// Buckets lists the populated buckets in ascending bound order; empty
	// buckets are omitted.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// PhaseStats is one row of the per-phase wall-clock breakdown.
type PhaseStats struct {
	Phase string `json:"phase"`
	HistogramStats
}

// Snapshot is the machine-readable metrics dump written by -metrics-out and
// consumed by `goofi stats`.
type Snapshot struct {
	// WallClockNs is the campaign's total wall-clock time.
	WallClockNs int64 `json:"wallClockNs"`
	// Phases is the leaf-phase breakdown; the TotalNs values sum to
	// approximately WallClockNs (exactly the instrumented fraction of it).
	Phases []PhaseStats `json:"phases"`
	// Counters and Gauges are all scalar instruments by name.
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds every non-phase histogram (store.* latencies etc.).
	Histograms []HistogramStats `json:"histograms,omitempty"`
	// TraceDropped counts wide events the journal overwrote past its cap.
	TraceDropped int64 `json:"traceDropped,omitempty"`
}

// Snapshot captures the recorder's current state. Safe to call while the
// campaign is still running (values are read atomically per instrument).
// Returns the zero Snapshot on a nil recorder.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		WallClockNs: r.reg.Gauge("campaign.wall_ns").Value(),
		Counters:    r.reg.counterValues(),
		Gauges:      r.reg.gaugeValues(),
	}
	delete(s.Gauges, "campaign.wall_ns") // surfaced as WallClockNs
	for p := Phase(0); p < NumPhases; p++ {
		hs := r.phases[p].Stats("phase." + p.String())
		s.Phases = append(s.Phases, PhaseStats{Phase: p.String(), HistogramStats: hs})
	}
	for _, hs := range r.reg.histStats() {
		if strings.HasPrefix(hs.Name, "phase.") {
			continue // already in Phases
		}
		s.Histograms = append(s.Histograms, hs)
	}
	s.TraceDropped = r.journal.Dropped()
	return s
}

// WriteMetrics writes the snapshot as indented JSON.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ParseSnapshot reads a -metrics-out JSON dump back in (for `goofi stats`).
func ParseSnapshot(rd io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obsv: parse metrics: %w", err)
	}
	// Reject arbitrary JSON (e.g. a trace file fed to `goofi stats`): a real
	// snapshot always carries a wall clock or at least one instrument.
	if s.WallClockNs <= 0 && len(s.Phases) == 0 && len(s.Counters) == 0 &&
		len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		return Snapshot{}, fmt.Errorf("obsv: parse metrics: no snapshot fields present")
	}
	return s, nil
}

// PhaseSumNs totals the per-phase durations — the instrumented fraction of
// the wall clock.
func (s Snapshot) PhaseSumNs() int64 {
	var sum int64
	for _, p := range s.Phases {
		sum += p.TotalNs
	}
	return sum
}

// Format renders the snapshot as the human-readable report behind
// `goofi stats`: a per-phase time breakdown with percentages of wall-clock,
// then latency histograms and scalar instruments.
func (s Snapshot) Format(w io.Writer) {
	wall := s.WallClockNs
	fmt.Fprintf(w, "campaign wall-clock  %s\n", fmtDur(wall))
	fmt.Fprintf(w, "instrumented phases  %s", fmtDur(s.PhaseSumNs()))
	if wall > 0 {
		fmt.Fprintf(w, "  (%.1f%% of wall-clock)", 100*float64(s.PhaseSumNs())/float64(wall))
	}
	fmt.Fprintln(w)

	phases := append([]PhaseStats(nil), s.Phases...)
	sort.Slice(phases, func(i, j int) bool { return phases[i].TotalNs > phases[j].TotalNs })
	fmt.Fprintf(w, "\n%-14s %10s %7s %8s %10s %10s %10s\n",
		"phase", "total", "share", "count", "p50", "p95", "p99")
	for _, p := range phases {
		if p.Count == 0 {
			continue
		}
		share := "-"
		if wall > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(p.TotalNs)/float64(wall))
		}
		fmt.Fprintf(w, "%-14s %10s %7s %8d %10s %10s %10s\n",
			p.Phase, fmtDur(p.TotalNs), share, p.Count,
			fmtDur(p.P50Ns), fmtDur(p.P95Ns), fmtDur(p.P99Ns))
	}

	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "\n%-24s %8s %10s %10s %10s %10s\n",
			"histogram", "count", "total", "p50", "p95", "p99")
		for _, h := range s.Histograms {
			fmt.Fprintf(w, "%-24s %8d %10s %10s %10s %10s\n",
				h.Name, h.Count, fmtDur(h.TotalNs),
				fmtDur(h.P50Ns), fmtDur(h.P95Ns), fmtDur(h.P99Ns))
		}
	}

	if len(s.Counters) > 0 {
		names := make([]string, 0, len(s.Counters))
		for n := range s.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\ncounters\n")
		for _, n := range names {
			fmt.Fprintf(w, "  %-26s %d\n", n, s.Counters[n])
		}
	}
	if len(s.Gauges) > 0 {
		names := make([]string, 0, len(s.Gauges))
		for n := range s.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\ngauges\n")
		for _, n := range names {
			fmt.Fprintf(w, "  %-26s %d\n", n, s.Gauges[n])
		}
	}
	if s.TraceDropped > 0 {
		fmt.Fprintf(w, "\ntrace events dropped: %d (the journal keeps the newest)\n", s.TraceDropped)
	}
}

// fmtDur renders nanoseconds compactly (µs/ms/s, three significant-ish
// digits) for the stats tables.
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}
