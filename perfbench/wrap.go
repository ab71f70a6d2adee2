package main

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/scan"
	"goofi/internal/target"
	"goofi/internal/trigger"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// Span names the metrics look up.
const (
	spanExperiment = "experiment"
	spanReference  = "reference"
	spanTerminate  = "WaitForTermination"
	spanRestore    = "RestoreCheckpointAt"
	spanImport     = "ImportCheckpoint"
	spanSave       = "SaveCheckpointAt"
	spanPlan       = "Plan"
	spanPut        = "PutExperiment"
	spanPutBatch   = "PutExperiments"
	spanResumeScan = "ExperimentNames"
	spanClassify   = "Classify"
	spanSync       = "Sync"
	spanWrite      = "Write"
	spanCreate     = "Create"
)

// tracedTarget times every target.Operations call into a Tracer and
// forwards the optional capabilities the engine probes for, exactly as
// target.Measured does: the checkpoint capabilities (with Unwrap, so
// target.AsCheckpointStore sees the real store), TriggerWaiter,
// ExperimentSeeder and SetWorkerID. As an ExperimentSeeder it also learns
// from the runner itself which (experiment, attempt) every call belongs to;
// each attempt becomes a core-layer span from SeedExperiment to the end of
// the attempt's last target call.
//
// One instance is driven by one goroutine at a time (the runner's contract),
// so the attempt fields need no lock.
type tracedTarget struct {
	target.Operations
	tr   *Tracer
	lane atomic.Int32

	open         bool
	exp, attempt int
	aStart, aEnd int64
	aLane        int
	restored     int64 // cycle the open attempt restored from, 0 if none
}

// targetSet mints traced targets and closes their open attempt spans when a
// campaign ends.
type targetSet struct {
	tr  *Tracer
	mu  sync.Mutex
	all []*tracedTarget
}

func (ts *targetSet) wrap(ops target.Operations) *tracedTarget {
	t := &tracedTarget{Operations: ops, tr: ts.tr}
	ts.mu.Lock()
	ts.all = append(ts.all, t)
	ts.mu.Unlock()
	return t
}

func (ts *targetSet) factory(inner target.Factory) target.Factory {
	return target.FactoryFunc(func() (target.Operations, error) {
		ops, err := inner.New()
		if err != nil {
			return nil, err
		}
		return ts.wrap(ops), nil
	})
}

// finish closes every open attempt span; call it after Runner.Run returns.
func (ts *targetSet) finish() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, t := range ts.all {
		t.closeAttempt()
	}
	ts.all = nil
}

func (t *tracedTarget) closeAttempt() {
	if !t.open {
		return
	}
	t.open = false
	name := spanExperiment
	if t.exp < 0 {
		name = spanReference
	}
	t.tr.Add(Span{Name: name, Layer: layerCore, Start: t.aStart, End: t.aEnd,
		Lane: t.aLane, Exp: t.exp, Attempt: t.attempt, N: t.restored, OK: true})
}

// done records one finished target call that started at start.
func (t *tracedTarget) done(layer, name string, start, n int64, ok bool) {
	end := t.tr.Now()
	s := Span{Name: name, Layer: layer, Start: start, End: end, Lane: int(t.lane.Load()),
		Exp: noExp, N: n, OK: ok}
	if t.open {
		s.Exp, s.Attempt = t.exp, t.attempt
		t.aEnd = end
	}
	t.tr.Add(s)
}

// SeedExperiment marks the start of one attempt and forwards to a seeded
// inner target.
func (t *tracedTarget) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	t.closeAttempt()
	now := t.tr.Now()
	t.open, t.exp, t.attempt = true, experiment, attempt
	t.aStart, t.aEnd, t.aLane, t.restored = now, now, int(t.lane.Load()), 0
	if es, ok := t.Operations.(target.ExperimentSeeder); ok {
		es.SeedExperiment(campaignSeed, experiment, attempt)
	}
}

// SetWorkerID moves the instance to a worker lane.
func (t *tracedTarget) SetWorkerID(tid int32) { t.lane.Store(tid) }

// Unwrap exposes the inner target to capability probes.
func (t *tracedTarget) Unwrap() target.Operations { return t.Operations }

func (t *tracedTarget) InitTestCard() error {
	start := t.tr.Now()
	err := t.Operations.InitTestCard()
	t.done(layerTarget, "InitTestCard", start, 0, err == nil)
	return err
}

func (t *tracedTarget) LoadWorkload(w workload.Spec) error {
	start := t.tr.Now()
	err := t.Operations.LoadWorkload(w)
	t.done(layerTarget, "LoadWorkload", start, 0, err == nil)
	return err
}

func (t *tracedTarget) RunWorkload() error {
	start := t.tr.Now()
	err := t.Operations.RunWorkload()
	t.done(layerTarget, "RunWorkload", start, 0, err == nil)
	return err
}

func (t *tracedTarget) WriteMemory(addr uint32, vals []uint32) error {
	start := t.tr.Now()
	err := t.Operations.WriteMemory(addr, vals)
	t.done(layerTarget, "WriteMemory", start, int64(len(vals)), err == nil)
	return err
}

func (t *tracedTarget) ReadMemory(addr uint32, n int) ([]uint32, error) {
	start := t.tr.Now()
	v, err := t.Operations.ReadMemory(addr, n)
	t.done(layerTarget, "ReadMemory", start, int64(n), err == nil)
	return v, err
}

func (t *tracedTarget) SetBreakpoint(cycle uint64) error {
	start := t.tr.Now()
	err := t.Operations.SetBreakpoint(cycle)
	t.done(layerThor, "SetBreakpoint", start, int64(cycle), err == nil)
	return err
}

func (t *tracedTarget) WaitForBreakpoint(maxCycles uint64) (bool, error) {
	start := t.tr.Now()
	hit, err := t.Operations.WaitForBreakpoint(maxCycles)
	t.done(layerThor, "WaitForBreakpoint", start, 0, err == nil)
	return hit, err
}

// WaitForTermination records the cycles this attempt simulated: the
// termination cycle minus the cycle its checkpoint restore skipped to.
func (t *tracedTarget) WaitForTermination(spec target.TerminationSpec) (target.Termination, error) {
	start := t.tr.Now()
	term, err := t.Operations.WaitForTermination(spec)
	t.done(layerThor, spanTerminate, start, int64(term.Cycles)-t.restored, err == nil)
	return term, err
}

func (t *tracedTarget) ReadScanChain(chain string) (scan.Bits, error) {
	start := t.tr.Now()
	b, err := t.Operations.ReadScanChain(chain)
	t.done(layerScan, "ReadScanChain", start, int64(b.Len()), err == nil)
	return b, err
}

func (t *tracedTarget) WriteScanChain(chain string, bits scan.Bits) error {
	start := t.tr.Now()
	err := t.Operations.WriteScanChain(chain, bits)
	t.done(layerScan, "WriteScanChain", start, int64(bits.Len()), err == nil)
	return err
}

func (t *tracedTarget) SaveCheckpoint() error {
	cp, ok := t.Operations.(target.Checkpointer)
	if !ok {
		return target.ErrNotImplemented
	}
	start := t.tr.Now()
	err := cp.SaveCheckpoint()
	t.done(layerThor, "SaveCheckpoint", start, 0, err == nil)
	return err
}

func (t *tracedTarget) RestoreCheckpoint() (bool, error) {
	cp, ok := t.Operations.(target.Checkpointer)
	if !ok {
		return false, target.ErrNotImplemented
	}
	start := t.tr.Now()
	hit, err := cp.RestoreCheckpoint()
	t.done(layerThor, "RestoreCheckpoint", start, 0, err == nil)
	return hit, err
}

func (t *tracedTarget) ClearCheckpoint() {
	if cp, ok := t.Operations.(target.Checkpointer); ok {
		cp.ClearCheckpoint()
	}
}

func (t *tracedTarget) SaveCheckpointAt(id uint64) error {
	cs, ok := t.Operations.(target.CheckpointStore)
	if !ok {
		return target.ErrNotImplemented
	}
	start := t.tr.Now()
	err := cs.SaveCheckpointAt(id)
	t.done(layerThor, spanSave, start, int64(id), err == nil)
	return err
}

// RestoreCheckpointAt records the restored cycle; a hit makes it the base
// the attempt's simulated cycles count from.
func (t *tracedTarget) RestoreCheckpointAt(id uint64) (bool, error) {
	cs, ok := t.Operations.(target.CheckpointStore)
	if !ok {
		return false, target.ErrNotImplemented
	}
	start := t.tr.Now()
	hit, err := cs.RestoreCheckpointAt(id)
	if hit && err == nil {
		t.restored = int64(id)
	}
	t.done(layerThor, spanRestore, start, int64(id), hit && err == nil)
	return hit, err
}

func (t *tracedTarget) DropCheckpointAt(id uint64) {
	if cs, ok := t.Operations.(target.CheckpointStore); ok {
		cs.DropCheckpointAt(id)
	}
}

func (t *tracedTarget) DropCheckpoints() {
	if cs, ok := t.Operations.(target.CheckpointStore); ok {
		cs.DropCheckpoints()
	}
}

func (t *tracedTarget) CheckpointBytes() int64 {
	if cs, ok := t.Operations.(target.CheckpointStore); ok {
		return cs.CheckpointBytes()
	}
	return 0
}

func (t *tracedTarget) ExportCheckpoint(id uint64) (any, bool) {
	if cs, ok := t.Operations.(target.CheckpointStore); ok {
		return cs.ExportCheckpoint(id)
	}
	return nil, false
}

func (t *tracedTarget) ImportCheckpoint(id uint64, snap any) error {
	cs, ok := t.Operations.(target.CheckpointStore)
	if !ok {
		return target.ErrNotImplemented
	}
	start := t.tr.Now()
	err := cs.ImportCheckpoint(id, snap)
	t.done(layerThor, spanImport, start, int64(id), err == nil)
	return err
}

func (t *tracedTarget) WaitForTrigger(trig trigger.Trigger, maxCycles uint64) (bool, error) {
	tw, ok := t.Operations.(target.TriggerWaiter)
	if !ok {
		return false, target.ErrNotImplemented
	}
	start := t.tr.Now()
	hit, err := tw.WaitForTrigger(trig, maxCycles)
	t.done(layerThor, "WaitForTrigger", start, 0, err == nil)
	return hit, err
}

// tracedStore times every core.CampaignStore call on lane 0: the runner
// calls its store only from the goroutine that called Run.
type tracedStore struct {
	*dbase.Store
	tr *Tracer
}

func (s tracedStore) rec(name string, exp int, n int64, fn func() error) error {
	start := s.tr.Now()
	err := fn()
	s.tr.Add(Span{Name: name, Layer: layerDbase, Start: start, End: s.tr.Now(), Exp: exp, N: n, OK: err == nil})
	return err
}

func (s tracedStore) GetCampaign(name string) (row dbase.CampaignRow, err error) {
	err = s.rec("GetCampaign", noExp, 0, func() error { row, err = s.Store.GetCampaign(name); return err })
	return row, err
}

func (s tracedStore) PutCampaign(row dbase.CampaignRow) error {
	return s.rec("PutCampaign", noExp, 1, func() error { return s.Store.PutCampaign(row) })
}

func (s tracedStore) PutExperiment(row dbase.ExperimentRow) error {
	return s.rec(spanPut, expIndex(row.ExperimentName), 1, func() error { return s.Store.PutExperiment(row) })
}

func (s tracedStore) PutExperiments(rows []dbase.ExperimentRow) error {
	return s.rec(spanPutBatch, noExp, int64(len(rows)), func() error { return s.Store.PutExperiments(rows) })
}

func (s tracedStore) ExperimentNames(campaign string) (names map[string]bool, err error) {
	err = s.rec(spanResumeScan, noExp, 0, func() error { names, err = s.Store.ExperimentNames(campaign); return err })
	return names, err
}

func (s tracedStore) GetExperiment(name string) (row dbase.ExperimentRow, err error) {
	err = s.rec("GetExperiment", expIndex(name), 0, func() error { row, err = s.Store.GetExperiment(name); return err })
	return row, err
}

// expIndex parses the experiment index from a row name ("<campaign>/e0042"
// or "<campaign>/ref").
func expIndex(name string) int {
	i := strings.LastIndexByte(name, '/')
	suffix := name[i+1:]
	if suffix == "ref" {
		return -1
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(suffix, "e")); err == nil {
		return n
	}
	return noExp
}

// tracedPlan is a Runner.PlanFunc that times the fault model's own sampling.
func tracedPlan(tr *Tracer, m faultmodel.Model) func(*rand.Rand, []faultmodel.Location, uint64, uint64, uint64) (faultmodel.Plan, error) {
	return func(rng *rand.Rand, locs []faultmodel.Location, minT, maxT, horizon uint64) (faultmodel.Plan, error) {
		start := tr.Now()
		p, err := m.Plan(rng, locs, minT, maxT, horizon)
		tr.Add(Span{Name: spanPlan, Layer: layerFaultmodel, Start: start, End: tr.Now(), Exp: noExp, OK: err == nil})
		return p, err
	}
}

// tracedFS times every file operation of the storage stack. It cannot tell
// which goroutine calls it, so its spans start on ioLane and attributeIO
// moves them under the store call that waited for them.
type tracedFS struct {
	inner vfs.FS
	tr    *Tracer
}

func (f tracedFS) rec(name, file string, n int64, start int64, err error) {
	f.tr.Add(Span{Name: name, Layer: layerVFS, Start: start, End: f.tr.Now(), Lane: ioLane,
		Exp: noExp, N: n, OK: err == nil, Detail: filepath.Base(file)})
}

func (f tracedFS) file(fl vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return tracedFile{File: fl, fs: f}, nil
}

func (f tracedFS) Open(name string) (vfs.File, error) {
	start := f.tr.Now()
	fl, err := f.inner.Open(name)
	f.rec("Open", name, 0, start, err)
	return f.file(fl, err)
}

func (f tracedFS) Create(name string) (vfs.File, error) {
	start := f.tr.Now()
	fl, err := f.inner.Create(name)
	f.rec(spanCreate, name, 0, start, err)
	return f.file(fl, err)
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	start := f.tr.Now()
	fl, err := f.inner.OpenFile(name, flag, perm)
	op := "OpenFile"
	if flag&os.O_CREATE != 0 {
		op = spanCreate
	}
	f.rec(op, name, 0, start, err)
	return f.file(fl, err)
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	start := f.tr.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.rec("Rename", newpath, 0, start, err)
	return err
}

func (f tracedFS) Remove(name string) error {
	start := f.tr.Now()
	err := f.inner.Remove(name)
	f.rec("Remove", name, 0, start, err)
	return err
}

func (f tracedFS) ReadFile(name string) ([]byte, error) {
	start := f.tr.Now()
	b, err := f.inner.ReadFile(name)
	f.rec("ReadFile", name, int64(len(b)), start, err)
	return b, err
}

func (f tracedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	start := f.tr.Now()
	d, err := f.inner.ReadDir(name)
	f.rec("ReadDir", name, int64(len(d)), start, err)
	return d, err
}

type tracedFile struct {
	vfs.File
	fs tracedFS
}

func (t tracedFile) Read(p []byte) (int, error) {
	start := t.fs.tr.Now()
	n, err := t.File.Read(p)
	t.fs.rec("Read", t.Name(), int64(n), start, ignoreEOF(err))
	return n, err
}

func (t tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := t.fs.tr.Now()
	n, err := t.File.ReadAt(p, off)
	t.fs.rec("ReadAt", t.Name(), int64(n), start, ignoreEOF(err))
	return n, err
}

func (t tracedFile) Write(p []byte) (int, error) {
	start := t.fs.tr.Now()
	n, err := t.File.Write(p)
	t.fs.rec(spanWrite, t.Name(), int64(n), start, err)
	return n, err
}

func (t tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := t.fs.tr.Now()
	n, err := t.File.WriteAt(p, off)
	t.fs.rec(spanWrite, t.Name(), int64(n), start, err)
	return n, err
}

func (t tracedFile) Sync() error {
	start := t.fs.tr.Now()
	err := t.File.Sync()
	t.fs.rec(spanSync, t.Name(), 0, start, err)
	return err
}

func (t tracedFile) Truncate(size int64) error {
	start := t.fs.tr.Now()
	err := t.File.Truncate(size)
	t.fs.rec("Truncate", t.Name(), size, start, err)
	return err
}

func (t tracedFile) Close() error {
	start := t.fs.tr.Now()
	err := t.File.Close()
	t.fs.rec("Close", t.Name(), 0, start, err)
	return err
}

func ignoreEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}
