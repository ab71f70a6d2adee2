// Command perfbench is the repository benchmark: it runs one named campaign
// workload built from a seed, checks every output, and prints either the
// end-to-end metrics (untraced) or the per-layer metrics (traced) as the last
// line of standard output. README.md describes the workloads and metrics.
//
//	perfbench --workload scifi-pool --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Campaign workloads. N per campaign is sized so a 10 s run completes well
// over the 100 campaigns the p90 turnaround tail needs.
var campaignShapes = map[string]campaignShape{
	"scifi-pool": {n: 200, workers: 2, plainN: 200, build: scifiCampaign(200)},
	"fork-late":  {n: 100, plainN: 24, build: forkLateCampaign(100)},
	"wal-seq":    {n: 64, wal: true, plainN: 64, build: scifiCampaign(64)},
}

// serviceMix is the service-mix workload.
var serviceMix = serviceShape{clients: 2, n: 50, concurrency: 2, setupReps: 51}

// tailP is the fixed turnaround tail percentile; runs are extended until at
// least minCampaigns samples leave ten beyond it.
const (
	tailP        = 90
	minCampaigns = 100
)

// Units of the end-to-end metrics (untraced runs).
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"experiments_per_s":  "1/s",
	"time_to_report_s":   "s",
	"peak_rss_mb":        "MB",
	"campaigns_per_s":    "1/s",
	"turnaround_p50_ms":  "ms",
	"turnaround_tail_ms": "ms",
	"report_p50_ms":      "ms",
}

// Units of the per-layer metrics (traced runs).
var perLayerUnits = map[string]string{
	"faultmodel.plan_us_per_exp":       "us",
	"target.init_us_per_exp":           "us",
	"target.mem_us_per_exp":            "us",
	"thor.exec_us_per_exp":             "us",
	"thor.sim_cycles_per_exp":          "count",
	"thor.exec_ns_per_cycle":           "ns",
	"scan.shift_us_per_exp":            "us",
	"scan.shift_calls_per_exp":         "count",
	"thor.checkpoint_saves":            "count",
	"thor.checkpoint_save_ms":          "ms",
	"thor.restore_us_per_exp":          "us",
	"thor.restore_hit_ratio":           "ratio",
	"thor.prefix_skipped_ratio":        "ratio",
	"core.reference_ms":                "ms",
	"core.self_us_per_exp":             "us",
	"core.lane_busy_ratio.lane0":       "ratio",
	"core.lane_busy_ratio.lane1":       "ratio",
	"core.lane_busy_ratio.lane2":       "ratio",
	"core.unattributed_ratio":          "ratio",
	"dbase.flush_us_per_exp":           "us",
	"dbase.flush_p50_us":               "us",
	"dbase.flush_tail_us":              "us",
	"dbase.rows_per_flush":             "count",
	"dbase.resume_scan_ms":             "ms",
	"vfs.sync_calls_per_exp":           "count",
	"vfs.sync_us_per_exp":              "us",
	"vfs.sync_tail_us":                 "us",
	"vfs.wal_bytes_per_exp":            "bytes",
	"vfs.image_bytes":                  "bytes",
	"vfs.creates_per_campaign":         "count",
	"analysis.classify_us_per_exp":     "us",
	"analysis.classify_allocs_per_exp": "count",
	"service.submit_p50_ms":            "ms",
	"service.first_frame_ms":           "ms",
	"service.http_429_count":           "count",
	"process.alloc_kb_per_exp":         "KiB",
	"process.gc_pause_ms":              "ms",
	"bench.trace_overhead_ratio":       "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	d        time.Duration
	trace    bool
	tmp      string // scratch for WAL stores and service data
	// The workload's shape and how many campaigns an untraced run needs at
	// least; tests shrink them.
	campaign     campaignShape
	service      serviceShape
	minCampaigns int
}

// seedsPerRun is how many distinct campaigns one run cycles through: enough
// that no single campaign's cost moves a run's medians, few enough that
// every one repeats and has its digest checked against its earlier run.
const seedsPerRun = 32

// seedsFor derives the campaign seeds of one run.
func seedsFor(seed int64) []int64 {
	out := make([]int64, seedsPerRun)
	for i := range out {
		out[i] = seed*seedsPerRun + int64(i) + 1
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: scifi-pool, fork-late, wal-seq or service-mix")
	seed := fs.Int64("seed", 1, "seed the workload's campaigns are built from")
	seconds := fs.Int("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traces, history and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := campaignShapes[*wl]; !ok && *wl != "service-mix" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	host := currentHost()
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stderr, "host: %s\n", hj)
	cfg := config{
		workload: *wl, seed: *seed, d: time.Duration(*seconds) * time.Second, trace: *trace == 1, tmp: tmp,
		campaign: campaignShapes[*wl], service: serviceMix, minCampaigns: minCampaigns,
	}
	res, prof, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
		res.Correct = false
		res.Failed++
	}
	if prof != nil {
		prof.writeSelfTable(stderr)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *wl, *seed))
		if werr := writeTraceFile(path, prof.kept); werr != nil {
			fmt.Fprintln(stderr, "perfbench: trace export:", werr)
		} else {
			fmt.Fprintf(stderr, "chrome trace: %s (%d spans)\n", path, len(prof.kept))
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if herr := appendHistory(filepath.Join(*out, "results.jsonl"), historyRecord{
		Time: time.Now().UTC(), Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: host, Result: res,
	}, stderr); herr != nil {
		fmt.Fprintln(stderr, "perfbench: history:", herr)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeTraceFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs the configured workload and assembles its result.
func measure(cfg config, log io.Writer) (result, *profile, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var (
		m   map[string]float64
		p   *profile
		err error
	)
	if cfg.workload == "service-mix" {
		m, p, err = measureService(cfg, &res, log)
	} else {
		m, p, err = measureCampaigns(cfg, &res, log)
	}
	units := endToEndUnits
	if cfg.trace {
		units = perLayerUnits
	}
	for k, u := range units {
		if v, ok := m[k]; ok {
			res.Metrics[k] = metric{Value: v, Unit: u}
		}
	}
	if err == nil && len(res.Metrics) != len(units) {
		err = fmt.Errorf("produced %d of %d metrics", len(res.Metrics), len(units))
	}
	return res, p, err
}

// tail is the turnaround tail: the fixed percentile while the sample count
// supports it, else the highest one that does.
func tail(xs []float64, log io.Writer) float64 {
	p := float64(tailP)
	if tp := tailPercentile(len(xs)); tp < p {
		fmt.Fprintf(log, "warning: %d samples support only p%v, not p%v, for the tail\n", len(xs), tp, p)
		p = tp
	}
	return percentile(xs, p)
}

func measureCampaigns(cfg config, res *result, log io.Writer) (map[string]float64, *profile, error) {
	shape := cfg.campaign
	cr := &campaignRunner{shape: shape, seeds: seedsFor(cfg.seed), dir: cfg.tmp, digests: newDigestBook()}
	defer func() { res.Attempted, res.Failed = int64(cr.attempted), int64(cr.failed) }()
	rates := func(ss []campaignSample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.n) / s.run.Seconds()
		}
		return out
	}
	if !cfg.trace {
		samples, wall, err := cr.loop(cfg.d, cfg.minCampaigns, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		if err := cr.digests.checkAgainstPlain(shape.build, shape.plainN); err != nil {
			return nil, nil, err
		}
		var busy time.Duration
		setup := make([]time.Duration, len(samples))
		turn, toReport, cls := make([]time.Duration, len(samples)), make([]time.Duration, len(samples)), make([]time.Duration, len(samples))
		for i, s := range samples {
			setup[i], turn[i], toReport[i], cls[i] = s.setup, s.turnaround, s.toReport, s.classify
			busy += s.wall
		}
		fmt.Fprintf(log, "%d campaigns of %d experiments in %v\n", len(samples), shape.n, wall.Round(time.Millisecond))
		return map[string]float64{
			"setup_s":            median(durations(setup, time.Second)),
			"experiments_per_s":  median(rates(samples)),
			"time_to_report_s":   median(durations(toReport, time.Second)),
			"peak_rss_mb":        rss,
			"campaigns_per_s":    float64(len(samples)) / busy.Seconds(),
			"turnaround_p50_ms":  median(durations(turn, time.Millisecond)),
			"turnaround_tail_ms": tail(durations(turn, time.Millisecond), log),
			"report_p50_ms":      median(durations(cls, time.Millisecond)),
		}, nil, nil
	}

	prof := newProfile(2)
	cr.acct = &runtime.MemStats{}
	untraced, _, err := cr.loop(cfg.d/2, 1, nil, nil)
	if err != nil {
		return nil, prof, err
	}
	prof.allocBytes, prof.gcPause = cr.acct.TotalAlloc, time.Duration(cr.acct.PauseTotalNs)
	cr.acct = nil
	for _, s := range untraced {
		prof.allocExps += s.n
	}
	prof.untracedRate = median(rates(untraced))
	traced, _, err := cr.loop(cfg.d/2, 1, NewTracer(), prof)
	if err != nil {
		return nil, prof, err
	}
	prof.tracedRate = median(rates(traced))
	if err := cr.digests.checkAgainstPlain(shape.build, shape.plainN); err != nil {
		return nil, prof, err
	}
	return prof.metrics(), prof, nil
}

func measureService(cfg config, res *result, log io.Writer) (map[string]float64, *profile, error) {
	sr := &serviceRunner{shape: cfg.service, seeds: seedsFor(cfg.seed), dir: cfg.tmp}
	defer func() { res.Attempted, res.Failed = sr.attempted.Load(), sr.failed.Load() }()
	total := func(ss []serviceSample) int { return len(ss) * sr.shape.n }
	// phase runs one daemon for d and verifies its campaigns after stopping
	// it. With ms set it records the allocation and GC pause of the loop.
	phase := func(d time.Duration, minN int, tr *Tracer, prof *profile, ms *[2]runtime.MemStats) ([]serviceSample, time.Duration, float64, error) {
		if err := sr.setup(tr); err != nil {
			return nil, 0, 0, errors.Join(err, sr.close())
		}
		if ms != nil {
			runtime.ReadMemStats(&ms[0])
		}
		samples, wall, err := sr.loop(d, minN, tr, prof)
		if ms != nil {
			runtime.ReadMemStats(&ms[1])
		}
		rss, rerr := peakRSSMB()
		if err = errors.Join(err, rerr, sr.close()); err != nil {
			return nil, 0, 0, err
		}
		if tr != nil {
			// Lane 0 only set the daemon up; the loop ran on the client lanes.
			prof.campaigns += len(samples)
			prof.experiments += total(samples)
			prof.fold(window{spans: tr.Take()})
		}
		if err := sr.verify(samples, tr, prof); err != nil {
			return nil, 0, 0, err
		}
		return samples, wall, rss, nil
	}
	if !cfg.trace {
		samples, wall, rss, err := phase(cfg.d, cfg.minCampaigns, nil, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		turn, toReport, rep := make([]time.Duration, len(samples)), make([]time.Duration, len(samples)), make([]time.Duration, len(samples))
		for i, s := range samples {
			turn[i], toReport[i], rep[i] = s.turnaround, s.toReport, s.report
		}
		return map[string]float64{
			"setup_s":            median(durations(sr.setups, time.Second)),
			"experiments_per_s":  float64(total(samples)) / wall.Seconds(),
			"time_to_report_s":   median(durations(toReport, time.Second)),
			"peak_rss_mb":        rss,
			"campaigns_per_s":    float64(len(samples)) / wall.Seconds(),
			"turnaround_p50_ms":  median(durations(turn, time.Millisecond)),
			"turnaround_tail_ms": tail(durations(turn, time.Millisecond), log),
			"report_p50_ms":      median(durations(rep, time.Millisecond)),
		}, nil, nil
	}

	prof := newProfile(1)
	var ms [2]runtime.MemStats
	untraced, wallU, _, err := phase(cfg.d/2, 2, nil, nil, &ms)
	if err != nil {
		return nil, prof, err
	}
	prof.allocBytes, prof.gcPause = ms[1].TotalAlloc-ms[0].TotalAlloc, time.Duration(ms[1].PauseTotalNs-ms[0].PauseTotalNs)
	prof.allocExps = total(untraced)
	prof.untracedRate = float64(total(untraced)) / wallU.Seconds()
	sr.shape.setupReps = 1
	tr := NewTracer()
	traced, wallT, _, err := phase(cfg.d/2, 2, tr, prof, nil)
	if err != nil {
		return nil, prof, err
	}
	prof.tracedRate = float64(total(traced)) / wallT.Seconds()
	prof.http429 = int(sr.http429.Load())
	return prof.metrics(), prof, nil
}
