package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (text/plain; version=0.0.4), dependency-free. Every
// instrument in the snapshot is exported:
//
//   - counters  → goofi_<name>_total
//   - gauges    → goofi_<name>
//   - the campaign wall-clock → goofi_campaign_wall_clock_seconds
//   - phase histograms → one goofi_phase_duration_seconds family with a
//     phase label, cumulative le buckets from the power-of-two bucket edges
//   - other histograms → goofi_<name>_seconds histogram families
//   - dropped trace events → goofi_trace_events_dropped_total
//
// Durations are converted from nanoseconds to Prometheus base seconds.
// Output is deterministic: families and label values appear in sorted order.
func WritePrometheus(w io.Writer, s Snapshot) error {
	return writePrometheus(w, []labeledSnapshot{{snap: s}})
}

// WritePrometheusMulti renders several snapshots — keyed by campaign id — as
// one exposition. The text format requires each metric family to appear
// exactly once, so the writer unions the instrument names across snapshots,
// emits each family header once, and distinguishes the per-campaign series
// with a campaign label. The campaign service multiplexes every running
// campaign's recorder onto its single /metrics endpoint through this; its
// service-level snapshot (HTTP latency, runtime gauges) travels under the
// empty key and carries no campaign label.
func WritePrometheusMulti(w io.Writer, snaps map[string]Snapshot) error {
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls := make([]labeledSnapshot, 0, len(keys))
	for _, k := range keys {
		labels := ""
		if k != "" {
			labels = `campaign="` + promLabelValue(k) + `"`
		}
		ls = append(ls, labeledSnapshot{labels: labels, snap: snaps[k]})
	}
	return writePrometheus(w, ls)
}

// labeledSnapshot pairs one snapshot with the raw label body (`k="v",...` or
// empty) attached to every series it contributes.
type labeledSnapshot struct {
	labels string
	snap   Snapshot
}

// writePrometheus is the shared exposition core: every family appears once,
// holding one series (or bucket set) per labeled snapshot that carries the
// instrument.
func writePrometheus(w io.Writer, ls []labeledSnapshot) error {
	pw := &promWriter{w: w}

	anyWall := false
	for _, l := range ls {
		if l.snap.WallClockNs > 0 {
			anyWall = true
			break
		}
	}
	if anyWall {
		pw.family("goofi_campaign_wall_clock_seconds", "gauge",
			"Total campaign wall-clock time so far.")
		for _, l := range ls {
			if l.snap.WallClockNs > 0 {
				pw.sample("goofi_campaign_wall_clock_seconds", l.labels, promSeconds(l.snap.WallClockNs))
			}
		}
	}

	for _, name := range unionNames(ls, func(s Snapshot) map[string]int64 { return s.Counters }) {
		fam := "goofi_" + promName(name) + "_total"
		pw.family(fam, "counter", "Counter "+name+".")
		for _, l := range ls {
			if v, ok := l.snap.Counters[name]; ok {
				pw.sample(fam, l.labels, float64(v))
			}
		}
	}
	for _, name := range unionNames(ls, func(s Snapshot) map[string]int64 { return s.Gauges }) {
		fam := "goofi_" + promName(name)
		pw.family(fam, "gauge", "Gauge "+name+".")
		for _, l := range ls {
			if v, ok := l.snap.Gauges[name]; ok {
				pw.sample(fam, l.labels, float64(v))
			}
		}
	}
	anyDropped := false
	for _, l := range ls {
		if l.snap.TraceDropped > 0 {
			anyDropped = true
			break
		}
	}
	if anyDropped {
		pw.family("goofi_trace_events_dropped_total", "counter",
			"Wide events the provenance journal overwrote past its cap.")
		for _, l := range ls {
			if l.snap.TraceDropped > 0 {
				pw.sample("goofi_trace_events_dropped_total", l.labels, float64(l.snap.TraceDropped))
			}
		}
	}

	anyPhases := false
	for _, l := range ls {
		if len(l.snap.Phases) > 0 {
			anyPhases = true
			break
		}
	}
	if anyPhases {
		pw.family("goofi_phase_duration_seconds", "histogram",
			"Leaf-phase durations partitioning the campaign wall-clock.")
		for _, l := range ls {
			for _, p := range l.snap.Phases {
				pw.histogram("goofi_phase_duration_seconds",
					joinLabels(l.labels, `phase="`+p.Phase+`"`), p.HistogramStats)
			}
		}
	}
	histNames := []string{}
	httpNames := []string{}
	seen := map[string]bool{}
	for _, l := range ls {
		for _, h := range l.snap.Histograms {
			if seen[h.Name] {
				continue
			}
			seen[h.Name] = true
			if strings.HasPrefix(h.Name, httpHistPrefix) {
				httpNames = append(httpNames, h.Name)
			} else {
				histNames = append(histNames, h.Name)
			}
		}
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		fam := "goofi_" + promName(name) + "_seconds"
		pw.family(fam, "histogram", "Latency histogram "+name+".")
		for _, l := range ls {
			for _, h := range l.snap.Histograms {
				if h.Name == name {
					pw.histogram(fam, l.labels, h)
				}
			}
		}
	}
	if len(httpNames) > 0 {
		sort.Strings(httpNames)
		pw.family("goofi_http_request_duration_seconds", "histogram",
			"Service HTTP request latency by route and status.")
		for _, name := range httpNames {
			route, status := splitHTTPHistName(name)
			lbl := `route="` + promLabelValue(route) + `",status="` + promLabelValue(status) + `"`
			for _, l := range ls {
				for _, h := range l.snap.Histograms {
					if h.Name == name {
						pw.histogram("goofi_http_request_duration_seconds", joinLabels(l.labels, lbl), h)
					}
				}
			}
		}
	}
	return pw.err
}

// httpHistPrefix marks the per-route/status HTTP latency histograms the
// service records ("http|<route>|<status>"). They fold into one
// goofi_http_request_duration_seconds family with route and status labels
// instead of mangling the route into a metric name.
const httpHistPrefix = "http|"

// HTTPHistName builds the histogram name under which one route/status pair's
// request latencies are recorded.
func HTTPHistName(route string, status int) string {
	return httpHistPrefix + route + "|" + strconv.Itoa(status)
}

// splitHTTPHistName is the inverse of HTTPHistName.
func splitHTTPHistName(name string) (route, status string) {
	rest := strings.TrimPrefix(name, httpHistPrefix)
	if i := strings.LastIndexByte(rest, '|'); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// unionNames collects the sorted union of one instrument map's keys across
// all labeled snapshots.
func unionNames(ls []labeledSnapshot, get func(Snapshot) map[string]int64) []string {
	seen := map[string]bool{}
	out := []string{}
	for _, l := range ls {
		for n := range get(l.snap) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// joinLabels concatenates two raw label bodies, either of which may be empty.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// promLabelValue escapes a string for use inside a label value's quotes per
// the exposition format: backslash, double quote and newline.
func promLabelValue(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// promWriter accumulates exposition lines, keeping the first write error.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the HELP and TYPE header of one metric family.
func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels is the raw `k="v",...` body or "".
func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, promFloat(v))
}

// histogram emits the cumulative bucket/sum/count series of one histogram
// under the family name, with extraLabels attached to every sample.
func (p *promWriter) histogram(name, extraLabels string, h HistogramStats) {
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	cum := int64(0)
	for _, b := range h.Buckets {
		cum += b.Count
		le := promFloat(promSeconds(b.UpperNs))
		if b.UpperNs == math.MaxInt64 {
			le = "+Inf"
		}
		p.printf("%s_bucket{%sle=%q} %d\n", name, extraLabels+sep, le, cum)
	}
	// Prometheus requires a terminal +Inf bucket equal to the total count.
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].UpperNs != math.MaxInt64 {
		p.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, extraLabels+sep, h.Count)
	}
	p.sample(name+"_sum", extraLabels, promSeconds(h.TotalNs))
	p.printf("%s_count%s %d\n", name, bracket(extraLabels), h.Count)
}

func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// promName maps an instrument name onto the Prometheus metric-name charset:
// every run of characters outside [a-zA-Z0-9_] becomes one underscore.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	pendingSep := false
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			pendingSep = sb.Len() > 0
			continue
		}
		if pendingSep {
			sb.WriteByte('_')
			pendingSep = false
		}
		sb.WriteRune(r)
	}
	out := sb.String()
	if out == "" {
		return "unnamed"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "_" + out
	}
	return out
}

// promSeconds converts nanoseconds to seconds.
func promSeconds(ns int64) float64 { return float64(ns) / 1e9 }

// promFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, no exponent surprises for integers.
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
