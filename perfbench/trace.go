package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Layer names: the repository's modules, as the per-layer metrics and the
// self-time table name them.
const (
	layerService    = "service"
	layerCore       = "core"
	layerFaultmodel = "faultmodel"
	layerTarget     = "target"
	layerThor       = "thor"
	layerScan       = "scan"
	layerDbase      = "dbase"
	layerVFS        = "vfs"
	layerAnalysis   = "analysis"
)

// Lanes: 0 is the goroutine driving a campaign (the Runner's coordinator),
// 1..W are pool or fork workers, client goroutines of the service workload
// take 1..K, and ioLane collects file I/O that no traced store call encloses
// (the WAL committer runs on its own goroutine).
const ioLane = -1

// noExp marks a span not tied to one experiment.
const noExp = -2

// Span is one timed call across a layer boundary, recorded by the
// benchmark's wrappers around the public seams.
type Span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start"` // ns since the tracer epoch
	End     int64  `json:"end"`
	Parent  int    `json:"parent"` // ID of the enclosing span on its lane, -1 at the root
	Exp     int    `json:"exp"`    // experiment index, -1 for the reference run, noExp otherwise
	Attempt int    `json:"attempt"`
	Lane    int    `json:"lane"`
	// N is a call-specific quantity: termination cycles, restored cycle,
	// rows flushed or bytes written.
	N      int64  `json:"n"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"` // file name of a vfs span
}

// Tracer keeps spans in memory until the benchmark takes them. Untraced
// runs install no wrappers at all; their nil *Tracer only runs what Record
// is handed.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	next  int
}

// NewTracer starts a tracer whose clock reads 0 now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now is the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Add records one finished span.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	s.ID = t.next
	t.next++
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Record times fn as a span on lane; on a nil Tracer it just runs fn.
func (t *Tracer) Record(lane int, layer, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := t.Now()
	err := fn()
	t.Add(Span{Name: name, Layer: layer, Start: start, End: t.Now(), Lane: lane, Exp: noExp, OK: err == nil})
	return err
}

// Take returns the spans recorded since the last Take and clears the buffer.
func (t *Tracer) Take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// window is one traced unit of work: its spans and the wall-clock bounds of
// lane 0 (the campaign's own goroutine). Zero bounds make lane 0 span its
// own spans, like every other lane.
type window struct {
	spans      []Span
	start, end int64
}

// attributeIO moves file I/O spans recorded on ioLane onto lane 0 when a
// lane-0 span encloses them: the campaign's own goroutine was blocked in
// that call (a store call, target registration, Classify) while the I/O ran,
// so the I/O is that call's child. File I/O happens below lane-0 calls only
// — the runner touches its store from the goroutine that called Run — and
// spans nothing encloses stay on ioLane.
func attributeIO(spans []Span) {
	var cover [][2]int64 // union of lane-0 span intervals, sorted and disjoint
	var lane0 []Span
	for _, s := range spans {
		if s.Lane == 0 {
			lane0 = append(lane0, s)
		}
	}
	sort.Slice(lane0, func(i, j int) bool { return lane0[i].Start < lane0[j].Start })
	for _, s := range lane0 {
		if n := len(cover); n > 0 && s.Start <= cover[n-1][1] {
			cover[n-1][1] = max(cover[n-1][1], s.End)
			continue
		}
		cover = append(cover, [2]int64{s.Start, s.End})
	}
	for i := range spans {
		s := &spans[i]
		if s.Lane != ioLane {
			continue
		}
		k := sort.Search(len(cover), func(j int) bool { return cover[j][0] > s.Start }) - 1
		if k >= 0 && cover[k][1] >= s.End {
			s.Lane = 0
		}
	}
}

// linkParents sets each span's Parent to the innermost span on its lane
// whose interval encloses it.
func linkParents(spans []Span) {
	byLane := map[int][]int{}
	for i := range spans {
		byLane[spans[i].Lane] = append(byLane[spans[i].Lane], i)
	}
	for _, idx := range byLane {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End <= spans[i].Start {
				stack = stack[:len(stack)-1]
			}
			spans[i].Parent = -1
			if len(stack) > 0 && spans[stack[len(stack)-1]].End >= spans[i].End {
				spans[i].Parent = spans[stack[len(stack)-1]].ID
			}
			stack = append(stack, i)
		}
	}
}

// laneTime is one lane's wall-clock split: self time per layer, and the part
// no span covers. Self plus unattributed equals wall by construction.
type laneTime struct {
	wall, unattributed int64
	self               map[string]int64
}

// selfTimes sweeps each lane and charges every instant to the innermost
// span active at that instant (the most recently started one). Lane 0 spans
// [from, to]; other lanes span their first to last span.
func selfTimes(spans []Span, from, to int64) map[int]*laneTime {
	type edge struct {
		t     int64
		start bool
		i     int
	}
	byLane := map[int][]edge{}
	for i, s := range spans {
		byLane[s.Lane] = append(byLane[s.Lane], edge{s.Start, true, i}, edge{s.End, false, i})
	}
	out := map[int]*laneTime{}
	for lane, edges := range byLane {
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].t != edges[b].t {
				return edges[a].t < edges[b].t
			}
			return !edges[a].start && edges[b].start // close before open
		})
		lo, hi := edges[0].t, edges[len(edges)-1].t
		if lane == 0 && to > from {
			lo, hi = min(lo, from), max(hi, to)
		}
		lt := &laneTime{wall: hi - lo, self: map[string]int64{}}
		var active []int
		prev := lo
		for _, e := range edges {
			if d := e.t - prev; d > 0 {
				if len(active) > 0 {
					lt.self[spans[active[len(active)-1]].Layer] += d
				} else {
					lt.unattributed += d
				}
			}
			prev = e.t
			if e.start {
				active = append(active, e.i)
				continue
			}
			for k := len(active) - 1; k >= 0; k-- {
				if active[k] == e.i {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}
		}
		lt.unattributed += hi - prev
		out[lane] = lt
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome exports spans as Chrome trace_event JSON: one thread per lane.
func writeChrome(w io.Writer, spans []Span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "n": s.N, "ok": s.OK}
		if s.Detail != "" {
			args["file"] = s.Detail
		}
		if s.Exp != noExp {
			args["experiment"], args["attempt"] = s.Exp, s.Attempt
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
