package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// maxKeptSpans bounds the Chrome trace export.
const maxKeptSpans = 20000

// profile folds traced windows into the per-layer metrics. Windows are
// folded as they complete and their spans dropped, except the first few,
// which are kept for the Chrome trace export.
type profile struct {
	keepWindows int
	kept        []Span

	campaigns   int
	experiments int

	lanes        map[int]*laneTime
	byName       map[string]time.Duration
	calls        map[string]int
	flushDur     []float64 // µs per store flush call
	flushRows    int64
	syncDur      []float64 // µs per fsync
	walBytes     int64
	imageBytes   int64
	execExpNs    int64 // thor execution inside fault-injection experiments
	simCycles    int64 // cycles simulated by fault-injection experiments
	skipped      int64 // prefix cycles checkpoint restores skipped
	restoreCalls int
	restoreHits  int
	referenceNs  int64
	references   int

	classifyNs     int64
	classifyExps   int
	classifyAllocs uint64

	// Service client side.
	submit     []float64 // ms
	firstFrame []float64 // ms
	http429    int

	// Untraced side of a traced run.
	allocBytes   uint64
	allocExps    int
	gcPause      time.Duration
	untracedRate float64
	tracedRate   float64
}

func newProfile(keep int) *profile {
	return &profile{
		keepWindows: keep,
		lanes:       map[int]*laneTime{},
		byName:      map[string]time.Duration{},
		calls:       map[string]int{},
	}
}

// fold adds one traced window.
func (p *profile) fold(w window) {
	attributeIO(w.spans)
	for lane, lt := range selfTimes(w.spans, w.start, w.end) {
		acc := p.lanes[lane]
		if acc == nil {
			acc = &laneTime{self: map[string]int64{}}
			p.lanes[lane] = acc
		}
		acc.wall += lt.wall
		acc.unattributed += lt.unattributed
		for layer, ns := range lt.self {
			acc.self[layer] += ns
		}
	}
	for _, s := range w.spans {
		d := s.End - s.Start
		key := s.Layer + "." + s.Name
		p.byName[key] += time.Duration(d)
		p.calls[key]++
		switch {
		case s.Layer == layerThor && s.Exp >= 0 && execSpan(s.Name):
			p.execExpNs += d
			if s.Name == spanTerminate {
				p.simCycles += s.N
			}
		case s.Name == spanRestore && s.Exp >= 0:
			p.restoreCalls++
			if s.OK {
				p.restoreHits++
				p.skipped += s.N
			}
		case s.Name == spanReference:
			p.referenceNs += d
			p.references++
		case s.Layer == layerDbase && (s.Name == spanPut || s.Name == spanPutBatch):
			p.flushDur = append(p.flushDur, float64(d)/1e3)
			p.flushRows += s.N
		case s.Layer == layerVFS && s.Name == spanSync:
			p.syncDur = append(p.syncDur, float64(d)/1e3)
		case s.Layer == layerVFS && s.Name == spanWrite:
			if strings.HasSuffix(s.Detail, ".wal") {
				p.walBytes += s.N
			} else {
				p.imageBytes += s.N
			}
		}
	}
	if p.keepWindows > 0 && len(p.kept) < maxKeptSpans {
		p.keepWindows--
		linkParents(w.spans)
		p.kept = append(p.kept, w.spans[:min(len(w.spans), maxKeptSpans-len(p.kept))]...)
	}
}

func execSpan(name string) bool {
	switch name {
	case "SetBreakpoint", "WaitForBreakpoint", spanTerminate, "WaitForTrigger":
		return true
	}
	return false
}

func (p *profile) nameTime(keys ...string) float64 {
	var d time.Duration
	for _, k := range keys {
		d += p.byName[k]
	}
	return float64(d)
}

func (p *profile) nameCalls(keys ...string) float64 {
	n := 0
	for _, k := range keys {
		n += p.calls[k]
	}
	return float64(n)
}

// metrics renders every per-layer metric. A metric that does not apply to a
// workload (no checkpoint restores outside fork-late, no HTTP outside
// service-mix, no seam into the service's own stores) reads 0; README.md
// lists which apply where.
func (p *profile) metrics() map[string]float64 {
	exps := float64(max(p.experiments, 1))
	camps := float64(max(p.campaigns, 1))
	perExpUs := func(keys ...string) float64 { return p.nameTime(keys...) / 1e3 / exps }

	var wall, unattr, coreSelf int64
	for _, lt := range p.lanes {
		wall += lt.wall
		unattr += lt.unattributed
		coreSelf += lt.self[layerCore]
	}
	m := map[string]float64{
		"faultmodel.plan_us_per_exp": perExpUs("faultmodel." + spanPlan),
		"target.init_us_per_exp":     perExpUs("target.InitTestCard", "target.LoadWorkload", "target.RunWorkload"),
		"target.mem_us_per_exp":      perExpUs("target.ReadMemory", "target.WriteMemory"),
		"thor.exec_us_per_exp": perExpUs("thor.SetBreakpoint", "thor.WaitForBreakpoint",
			"thor."+spanTerminate, "thor.WaitForTrigger"),
		"thor.sim_cycles_per_exp":   float64(p.simCycles) / exps,
		"thor.exec_ns_per_cycle":    ratio(float64(p.execExpNs), float64(p.simCycles)),
		"scan.shift_us_per_exp":     perExpUs("scan.ReadScanChain", "scan.WriteScanChain"),
		"scan.shift_calls_per_exp":  p.nameCalls("scan.ReadScanChain", "scan.WriteScanChain") / exps,
		"thor.checkpoint_saves":     p.nameCalls("thor."+spanSave, "thor.SaveCheckpoint") / camps,
		"thor.checkpoint_save_ms":   p.nameTime("thor."+spanSave, "thor.SaveCheckpoint") / 1e6 / camps,
		"thor.restore_us_per_exp":   perExpUs("thor."+spanRestore, "thor."+spanImport, "thor.RestoreCheckpoint"),
		"thor.restore_hit_ratio":    ratio(float64(p.restoreHits), float64(p.restoreCalls)),
		"thor.prefix_skipped_ratio": ratio(float64(p.skipped), float64(p.skipped+p.simCycles)),
		"core.reference_ms":         ratio(float64(p.referenceNs), float64(p.references)) / 1e6,
		"core.self_us_per_exp":      float64(coreSelf) / 1e3 / exps,
		"core.unattributed_ratio":   ratio(float64(unattr), float64(wall)),
		"dbase.flush_us_per_exp":    perExpUs("dbase."+spanPut, "dbase."+spanPutBatch),
		"dbase.flush_p50_us":        median(p.flushDur),
		"dbase.flush_tail_us":       percentile(p.flushDur, tailPercentile(len(p.flushDur))),
		"dbase.rows_per_flush":      ratio(float64(p.flushRows), float64(len(p.flushDur))),
		"dbase.resume_scan_ms":      p.nameTime("dbase."+spanResumeScan) / 1e6 / camps,
		"vfs.sync_calls_per_exp":    float64(len(p.syncDur)) / exps,
		"vfs.sync_us_per_exp":       p.nameTime("vfs."+spanSync) / 1e3 / exps,
		"vfs.sync_tail_us":          percentile(p.syncDur, tailPercentile(len(p.syncDur))),
		"vfs.wal_bytes_per_exp":     float64(p.walBytes) / exps,
		"vfs.image_bytes":           float64(p.imageBytes) / camps,
		"vfs.creates_per_campaign":  p.nameCalls("vfs."+spanCreate) / camps,
		"analysis.classify_us_per_exp": ratio(float64(p.classifyNs)/1e3,
			float64(p.classifyExps)),
		"analysis.classify_allocs_per_exp": ratio(float64(p.classifyAllocs), float64(p.classifyExps)),
		"service.submit_p50_ms":            median(p.submit),
		"service.first_frame_ms":           median(p.firstFrame),
		"service.http_429_count":           float64(p.http429),
		"process.alloc_kb_per_exp":         ratio(float64(p.allocBytes)/1024, float64(p.allocExps)),
		"process.gc_pause_ms":              float64(p.gcPause) / 1e6,
		"bench.trace_overhead_ratio":       ratio(p.tracedRate, p.untracedRate),
	}
	for _, lane := range []int{0, 1, 2} {
		v := 0.0
		if lt := p.lanes[lane]; lt != nil {
			v = ratio(float64(lt.wall-lt.unattributed), float64(lt.wall))
		}
		m[fmt.Sprintf("core.lane_busy_ratio.lane%d", lane)] = v
	}
	return m
}

// writeSelfTable prints the per-layer self-time table: every layer's self
// time plus unattributed sums to the lanes' wall-clock.
func (p *profile) writeSelfTable(w io.Writer) {
	self := map[string]int64{}
	var wall, unattr int64
	lanes := make([]int, 0, len(p.lanes))
	for lane, lt := range p.lanes {
		lanes = append(lanes, lane)
		wall += lt.wall
		unattr += lt.unattributed
		for layer, ns := range lt.self {
			self[layer] += ns
		}
	}
	sort.Ints(lanes)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "self time by layer over %d lanes %v (%d campaigns, %d experiments):\n",
		len(lanes), lanes, p.campaigns, p.experiments)
	var sum int64
	for _, l := range layers {
		sum += self[l]
		fmt.Fprintf(w, "  %-12s %10.1f ms %6.2f%%\n", l, float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(wall)))
	}
	sum += unattr
	fmt.Fprintf(w, "  %-12s %10.1f ms %6.2f%%\n", "unattributed", float64(unattr)/1e6, 100*ratio(float64(unattr), float64(wall)))
	fmt.Fprintf(w, "  %-12s %10.1f ms (lane wall-clock %.1f ms)\n", "sum", float64(sum)/1e6, float64(wall)/1e6)
}
