// Tests for the live-monitoring surface: the Prometheus /metrics endpoint
// (validated with a real exposition parser, not string matching), the
// /campaign/events JSON-lines stream, and goofi watch following an in-flight
// chaos campaign.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
	"goofi/internal/target"
)

// ---------------------------------------------------------------------------
// A minimal Prometheus text-exposition (version 0.0.4) parser for tests.

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promExposition struct {
	types   map[string]string // family name → counter|gauge|histogram
	helps   map[string]bool
	samples []promSample
}

// parseProm parses the exposition body, failing the test on any line that is
// neither a well-formed comment nor a well-formed sample.
func parseProm(t *testing.T, body string) *promExposition {
	t.Helper()
	exp := &promExposition{types: map[string]string{}, helps: map[string]bool{}}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			exp.helps[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, fields[1])
			}
			if _, dup := exp.types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			exp.types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comment
		}
		exp.samples = append(exp.samples, parsePromSample(t, ln+1, line))
	}
	// Every sample must belong to a family declared with HELP + TYPE.
	for _, s := range exp.samples {
		fam := exp.familyOf(s.name)
		if fam == "" {
			t.Fatalf("sample %s has no TYPE/HELP family declaration", s.name)
		}
		if !exp.helps[fam] {
			t.Fatalf("family %s has TYPE but no HELP", fam)
		}
	}
	return exp
}

// parsePromSample parses `name{k="v",...} value`.
func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: malformed sample %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		body := rest[1:]
		for {
			eq := strings.Index(body, "=")
			if eq < 0 {
				t.Fatalf("line %d: malformed labels in %q", ln, line)
			}
			key := body[:eq]
			body = body[eq+1:]
			if !strings.HasPrefix(body, `"`) {
				t.Fatalf("line %d: unquoted label value in %q", ln, line)
			}
			body = body[1:]
			end := strings.Index(body, `"`)
			if end < 0 {
				t.Fatalf("line %d: unterminated label value in %q", ln, line)
			}
			s.labels[key] = body[:end]
			body = body[end+1:]
			if strings.HasPrefix(body, ",") {
				body = body[1:]
				continue
			}
			if !strings.HasPrefix(body, "}") {
				t.Fatalf("line %d: malformed label block in %q", ln, line)
			}
			rest = body[1:]
			break
		}
	}
	valStr := strings.TrimSpace(rest)
	switch valStr {
	case "+Inf":
		s.value = math.Inf(1)
	case "-Inf":
		s.value = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln, valStr, err)
		}
		s.value = v
	}
	return s
}

// familyOf maps a sample name onto its declared family, accounting for the
// _bucket/_sum/_count series of histograms.
func (e *promExposition) familyOf(name string) string {
	if _, ok := e.types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && e.types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// value returns the single sample of an unlabelled family.
func (e *promExposition) value(t *testing.T, name string) float64 {
	t.Helper()
	var found []promSample
	for _, s := range e.samples {
		if s.name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("family %s: %d samples, want exactly 1", name, len(found))
	}
	return found[0].value
}

// checkHistogram validates one (family, labels) histogram series: le buckets
// in ascending order with non-decreasing cumulative counts, a terminal +Inf
// bucket equal to _count, and a _sum sample. Returns the total count.
func (e *promExposition) checkHistogram(t *testing.T, fam string, labels map[string]string) int64 {
	t.Helper()
	match := func(s promSample) bool {
		for k, v := range labels {
			if s.labels[k] != v {
				return false
			}
		}
		return true
	}
	var les []float64
	var cums []float64
	sum, count := math.NaN(), math.NaN()
	for _, s := range e.samples {
		if !match(s) {
			continue
		}
		switch s.name {
		case fam + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if s.labels["le"] == "+Inf" {
				le, err = math.Inf(1), nil
			}
			if err != nil {
				t.Fatalf("%s: bad le %q", fam, s.labels["le"])
			}
			les = append(les, le)
			cums = append(cums, s.value)
		case fam + "_sum":
			sum = s.value
		case fam + "_count":
			count = s.value
		}
	}
	if len(les) == 0 {
		t.Fatalf("%s%v: no buckets", fam, labels)
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Fatalf("%s%v: le not ascending: %v", fam, labels, les)
		}
		if cums[i] < cums[i-1] {
			t.Fatalf("%s%v: cumulative counts decrease: %v", fam, labels, cums)
		}
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("%s%v: missing terminal +Inf bucket", fam, labels)
	}
	if math.IsNaN(count) || math.IsNaN(sum) {
		t.Fatalf("%s%v: missing _count or _sum", fam, labels)
	}
	if cums[len(cums)-1] != count {
		t.Fatalf("%s%v: +Inf bucket %v != _count %v", fam, labels, cums[len(cums)-1], count)
	}
	return int64(count)
}

// promSan mirrors the exporter's metric-name sanitisation for instrument
// names (runs of non-[a-zA-Z0-9_] become one underscore).
func promSan(name string) string {
	var sb strings.Builder
	pending := false
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			pending = sb.Len() > 0
			continue
		}
		if pending {
			sb.WriteByte('_')
			pending = false
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------

// TestMetricsEndpointPrometheus runs a real campaign behind -debug-addr, then
// fetches /metrics and checks that the exposition parses and that every
// instrument of the recorder's snapshot is present with the right type and
// value.
func TestMetricsEndpointPrometheus(t *testing.T) {
	db := obsvCampaign(t, "prom", 8)
	if err := run([]string{"run", "-db", db, "-campaign", "prom", "-quiet",
		"-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	rec := debugRec.Load()
	if rec == nil {
		t.Fatal("run -debug-addr did not install a recorder")
	}
	snap := rec.Snapshot()

	srv := httptest.NewServer(newDebugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp := parseProm(t, string(raw))

	// Wall clock.
	if snap.WallClockNs <= 0 {
		t.Fatal("snapshot has no wall clock")
	}
	if exp.types["goofi_campaign_wall_clock_seconds"] != "gauge" {
		t.Error("wall clock family missing or not a gauge")
	}
	wantWall := float64(snap.WallClockNs) / 1e9
	if got := exp.value(t, "goofi_campaign_wall_clock_seconds"); math.Abs(got-wantWall) > 1e-6 {
		t.Errorf("wall clock = %v, want %v", got, wantWall)
	}

	// Every counter, with its exact value.
	if len(snap.Counters) == 0 {
		t.Fatal("snapshot has no counters; campaign did not record")
	}
	for name, want := range snap.Counters {
		fam := "goofi_" + promSan(name) + "_total"
		if exp.types[fam] != "counter" {
			t.Errorf("counter %s: family %s missing or mistyped %q", name, fam, exp.types[fam])
			continue
		}
		if got := exp.value(t, fam); got != float64(want) {
			t.Errorf("counter %s = %v, want %d", fam, got, want)
		}
	}
	// Every gauge.
	for name, want := range snap.Gauges {
		fam := "goofi_" + promSan(name)
		if exp.types[fam] != "gauge" {
			t.Errorf("gauge %s: family %s missing or mistyped %q", name, fam, exp.types[fam])
			continue
		}
		if got := exp.value(t, fam); got != float64(want) {
			t.Errorf("gauge %s = %v, want %d", fam, got, want)
		}
	}
	// Every phase as a labelled series of the phase-duration histogram.
	if exp.types["goofi_phase_duration_seconds"] != "histogram" {
		t.Fatal("phase duration family missing or not a histogram")
	}
	for _, p := range snap.Phases {
		count := exp.checkHistogram(t, "goofi_phase_duration_seconds",
			map[string]string{"phase": p.Phase})
		if count != p.Count {
			t.Errorf("phase %s count = %d, want %d", p.Phase, count, p.Count)
		}
	}
	// Every store/other latency histogram.
	if len(snap.Histograms) == 0 {
		t.Fatal("snapshot has no store histograms; SetRecorder not wired")
	}
	for _, h := range snap.Histograms {
		fam := "goofi_" + promSan(h.Name) + "_seconds"
		if exp.types[fam] != "histogram" {
			t.Errorf("histogram %s: family %s missing or mistyped %q", h.Name, fam, exp.types[fam])
			continue
		}
		if count := exp.checkHistogram(t, fam, nil); count != h.Count {
			t.Errorf("histogram %s count = %d, want %d", fam, count, h.Count)
		}
	}
}

// TestMetricsEndpointNoRecorder: before any run wires a recorder the endpoint
// answers 503, not an empty 200 a scraper would record as all-zeros.
func TestMetricsEndpointNoRecorder(t *testing.T) {
	old := debugRec.Load()
	debugRec.Store(nil)
	defer debugRec.Store(old)

	srv := httptest.NewServer(newDebugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics without recorder: %s, want 503", resp.Status)
	}
}

// TestEventsEndpointStream checks the /campaign/events contract: a subscriber
// joining mid-campaign gets the latest frame immediately, subsequent frames
// are well-formed JSON lines, and the stream ends cleanly when the campaign's
// broadcaster closes.
func TestEventsEndpointStream(t *testing.T) {
	oldB := debugEvents.Load()
	defer debugEvents.Store(oldB)
	b := obsv.NewBroadcaster()
	debugEvents.Store(b)

	srv := httptest.NewServer(newDebugMux())
	defer srv.Close()

	b.Publish(obsv.CampaignEvent{Campaign: "ev", Seq: 1, Done: 10, Total: 100})
	resp, err := http.Get(srv.URL + "/campaign/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/campaign/events: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	readEvent := func() obsv.CampaignEvent {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event: %v", err)
		}
		var ev obsv.CampaignEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", line, err)
		}
		return ev
	}

	first := readEvent() // replay of the latest frame
	if first.Seq != 1 || first.Done != 10 {
		t.Fatalf("replayed frame = %+v", first)
	}
	b.Publish(obsv.CampaignEvent{Campaign: "ev", Seq: 2, Done: 50, Total: 100})
	second := readEvent()
	if second.Seq != 2 || second.Done != 50 {
		t.Fatalf("second frame = %+v", second)
	}
	b.Publish(obsv.CampaignEvent{Campaign: "ev", Seq: 3, Done: 100, Total: 100, Final: true})
	third := readEvent()
	if !third.Final {
		t.Fatalf("third frame = %+v, want final", third)
	}

	// Closing the broadcaster (campaign over) must end the response body.
	b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := br.ReadString('\n')
		done <- err
	}()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("stream ended with %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not shut down after Broadcaster.Close")
	}
}

// TestEventsEndpointNoStream: 503 when no campaign is publishing.
func TestEventsEndpointNoStream(t *testing.T) {
	old := debugEvents.Load()
	debugEvents.Store(nil)
	defer debugEvents.Store(old)

	srv := httptest.NewServer(newDebugMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/campaign/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/campaign/events without stream: %s, want 503", resp.Status)
	}
}

// TestWatchLiveChaosCampaign is the live-monitoring acceptance test: a
// 200-experiment chaos campaign runs with the debug server attached while a
// watcher follows /campaign/events over real HTTP. Progress must be monotone
// and the final frame must match the Runner's own Summary.
func TestWatchLiveChaosCampaign(t *testing.T) {
	const n = 200
	dbFile := obsvCampaign(t, "livechaos", n)
	db, err := dbase.OpenStore(dbFile)
	if err != nil {
		t.Fatal(err)
	}
	row, err := db.GetCampaign("livechaos")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.CampaignFromRow(row)
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 2
	c.RetryLimit = 4

	cfg, err := target.ParseFlakyConfig("err=0.05,panic=0.01,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	var ops target.Operations = target.NewFlaky(target.NewDefaultThorTarget(), cfg)
	factory := target.FlakyFactory(target.DefaultThorFactory(), cfg)

	rec := obsv.New(obsv.Options{})
	db.SetRecorder(rec)
	events := obsv.NewBroadcaster()
	addr, err := startDebugServer("127.0.0.1:0", rec, events)
	if err != nil {
		t.Fatal(err)
	}

	r := core.NewRunner(ops, db, c)
	r.Factory = factory
	r.Recorder = rec
	r.Events = events
	r.MonitorInterval = 2 * time.Millisecond

	type runResult struct {
		sum core.Summary
		err error
	}
	runDone := make(chan runResult, 1)
	go func() {
		sum, err := r.Run(context.Background())
		runDone <- runResult{sum, err}
	}()

	// Follow the stream over HTTP like goofi watch does, recording every
	// frame for the monotonicity check and exercising the renderer.
	resp, err := http.Get("http://" + addr + "/campaign/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recorded bytes.Buffer
	var frames []obsv.CampaignEvent
	sc := bufio.NewScanner(io.TeeReader(resp.Body, &recorded))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev obsv.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, ev)
		_ = watchLine(ev) // renderer must not panic on any live frame
		if ev.Final {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	var res runResult
	select {
	case res = <-runDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not finish")
	}
	if res.err != nil {
		t.Fatalf("chaos campaign failed: %v", res.err)
	}
	sum := res.sum

	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least 2 (interval + final)", len(frames))
	}
	for i, ev := range frames {
		if ev.Campaign != "livechaos" || ev.Total != n {
			t.Fatalf("frame %d = %+v", i, ev)
		}
		if i > 0 {
			if ev.Seq <= frames[i-1].Seq {
				t.Errorf("frame %d: seq %d not increasing after %d", i, ev.Seq, frames[i-1].Seq)
			}
			if ev.Done < frames[i-1].Done {
				t.Errorf("frame %d: done %d decreased from %d", i, ev.Done, frames[i-1].Done)
			}
			if ev.ElapsedNs < frames[i-1].ElapsedNs {
				t.Errorf("frame %d: elapsed went backwards", i)
			}
		}
	}

	final := frames[len(frames)-1]
	if !final.Final {
		t.Fatal("stream ended without a final frame")
	}
	wantDetected := 0
	for _, v := range sum.Detections {
		wantDetected += v
	}
	if final.Done != sum.Completed+sum.Skipped ||
		final.Retries != sum.Retries ||
		final.Hangs != sum.Hangs ||
		final.Quarantined != sum.Quarantined ||
		final.Detected != wantDetected {
		t.Errorf("final frame %+v does not match summary %+v", final, sum)
	}
	if sum.Retries == 0 {
		t.Error("chaos campaign recorded no retries; chaos layer not exercised")
	}

	// The goofi watch renderer consumes the exact recorded stream.
	last, err := watchEvents(bytes.NewReader(recorded.Bytes()), io.Discard)
	if err != nil {
		t.Fatalf("watchEvents over live stream: %v", err)
	}
	if !last.Final || last.Done != final.Done {
		t.Errorf("watchEvents final = %+v, want %+v", last, final)
	}
}
