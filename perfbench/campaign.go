package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/sqldb"
	"goofi/internal/target"
	"goofi/internal/vfs"
	"goofi/internal/workload"
)

// campaignShape is one campaign workload: a campaign definition per seed and
// the engine configuration it runs under.
type campaignShape struct {
	n       int  // experiments per campaign
	workers int  // Campaign.Workers
	wal     bool // file-backed WAL store (SyncEvery=1) instead of memory
	// plainN is how many leading experiments the oracle re-runs on the plain
	// sequential engine; the campaign's first plainN rows must match.
	plainN int
	build  func(seed int64) core.Campaign
}

// scifiCampaign is the bubblesort SCIFI transient campaign of the
// scifi-pool, wal-seq and service-mix workloads.
func scifiCampaign(n int) func(seed int64) core.Campaign {
	return func(seed int64) core.Campaign {
		return core.Campaign{
			Workload:       workload.BubbleSort(),
			Technique:      core.TechSCIFI,
			Model:          faultmodel.Model{Kind: faultmodel.Transient},
			LocationFilter: "chain:internal.core",
			NExperiments:   n,
			Seed:           seed,
			InjectMinTime:  10,
			InjectMaxTime:  1400,
		}
	}
}

// forkLateCampaign is the BenchmarkCampaignForked shape: the control loop run
// for 960 iterations (~35.5k cycles) with faults only in the last ~1.5k.
func forkLateCampaign(n int) func(seed int64) core.Campaign {
	return func(seed int64) core.Campaign {
		w := workload.Control()
		w.MaxIterations = 960
		return core.Campaign{
			Workload:       w,
			Technique:      core.TechSCIFI,
			Model:          faultmodel.Model{Kind: faultmodel.Transient},
			LocationFilter: "chain:internal.core",
			NExperiments:   n,
			Seed:           seed,
			InjectMinTime:  34000,
			InjectMaxTime:  35000,
			Fork:           true,
		}
	}
}

// campaignSample is one campaign's timeline.
type campaignSample struct {
	setup      time.Duration // start → reference progress tick
	run        time.Duration // reference tick → Run returns
	turnaround time.Duration // start → Run returns
	toReport   time.Duration // start → Classify returns
	classify   time.Duration
	wall       time.Duration // start → store closed
	n          int
}

// campaignRunner runs campaigns of one shape back to back.
type campaignRunner struct {
	shape   campaignShape
	seeds   []int64
	dir     string // WAL store directory
	digests *digestBook
	next    int // campaign index, continuing across loops
	// acct, when set, sums the allocation and GC pause of the campaigns
	// themselves, excluding the oracle's read-back.
	acct *runtime.MemStats

	attempted, failed int
}

// loop runs campaigns until d has passed and at least minCampaigns have
// finished, or until 3d has passed. With tr set every seam is wrapped and
// each campaign folds into prof.
func (cr *campaignRunner) loop(d time.Duration, minCampaigns int, tr *Tracer, prof *profile) ([]campaignSample, time.Duration, error) {
	var out []campaignSample
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= d && len(out) >= minCampaigns) || el >= 3*d {
			return out, el, nil
		}
		s, err := cr.one(tr, prof)
		if err != nil {
			return out, time.Since(start), err
		}
		out = append(out, s)
	}
}

// one runs a single campaign: store open, target registration, Run,
// Classify, close — then the untimed output checks.
func (cr *campaignRunner) one(tr *Tracer, prof *profile) (campaignSample, error) {
	k := cr.next
	cr.next++
	seed := cr.seeds[k%len(cr.seeds)]
	c := cr.shape.build(seed)
	c.Name = fmt.Sprintf("c%05d", k)
	c.Workers = cr.shape.workers
	cr.attempted += c.NExperiments + 2 // experiments, Run, Classify

	var trStart int64
	if tr != nil {
		trStart = tr.Now()
	}
	var ms0 runtime.MemStats
	if cr.acct != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	path := filepath.Join(cr.dir, c.Name+".db")
	var store *dbase.Store
	err := tr.Record(0, layerDbase, "open", func() (err error) {
		if cr.shape.wal {
			var fsys vfs.FS = vfs.OS{}
			if tr != nil {
				fsys = tracedFS{inner: fsys, tr: tr}
			}
			store, err = dbase.OpenStoreWALFS(path, fsys, sqldb.WALOptions{SyncEvery: 1})
		} else {
			store, err = dbase.NewMemoryStore()
		}
		return err
	})
	if err != nil {
		return campaignSample{}, err
	}
	defer removeStore(path)
	thorOps := target.NewDefaultThorTarget()
	if err := tr.Record(0, layerCore, "RegisterTarget", func() error {
		return core.RegisterTarget(store, thorOps, "perfbench")
	}); err != nil {
		store.Close()
		return campaignSample{}, err
	}
	var (
		ops     target.Operations  = thorOps
		cstore  core.CampaignStore = store
		factory                    = target.DefaultThorFactory()
		ts      *targetSet
	)
	if tr != nil {
		ts = &targetSet{tr: tr}
		ops, factory, cstore = ts.wrap(thorOps), ts.factory(factory), tracedStore{Store: store, tr: tr}
	}
	r := core.NewRunner(ops, cstore, c)
	r.Factory = factory
	if tr != nil {
		r.PlanFunc = tracedPlan(tr, c.Model)
	}
	var tick time.Time
	r.OnProgress = func(core.Progress) {
		if tick.IsZero() {
			tick = time.Now()
		}
	}
	sum, err := r.Run(context.Background())
	runEnd := time.Now()
	if ts != nil {
		ts.finish()
	}
	if err != nil {
		store.Close()
		return campaignSample{}, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if sum.Completed != c.NExperiments {
		store.Close()
		return campaignSample{}, fmt.Errorf("campaign %s: completed %d of %d", c.Name, sum.Completed, c.NExperiments)
	}
	var rep analysis.Report
	cl0 := time.Now()
	err = classify(tr, prof, store, c.Name, c.NExperiments, &rep)
	end := time.Now()
	if err == nil && cr.shape.wal {
		err = tr.Record(0, layerDbase, "close", store.Save)
	}
	if cerr := tr.Record(0, layerDbase, "close", store.Close); err == nil {
		err = cerr
	}
	if err != nil {
		return campaignSample{}, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	closed := time.Now()
	if cr.acct != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		cr.acct.TotalAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		cr.acct.PauseTotalNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	if tr != nil {
		prof.campaigns++
		prof.experiments += c.NExperiments
		prof.fold(window{spans: tr.Take(), start: trStart, end: tr.Now()})
	}
	if err := cr.verify(store, path, c, seed, rep); err != nil {
		return campaignSample{}, err
	}
	// Start the next campaign on a collected heap, so garbage of this
	// campaign and of its check is not charged to the next one.
	runtime.GC()
	return campaignSample{
		setup:      tick.Sub(t0),
		run:        runEnd.Sub(tick),
		turnaround: runEnd.Sub(t0),
		toReport:   end.Sub(t0),
		classify:   end.Sub(cl0),
		wall:       closed.Sub(t0),
		n:          c.NExperiments,
	}, nil
}

// verify is the untimed output check of one campaign: rows logged exactly
// once, Classify's accounting, and the per-seed digest.
func (cr *campaignRunner) verify(store *dbase.Store, path string, c core.Campaign, seed int64, rep analysis.Report) error {
	if cr.shape.wal {
		// The store is closed; read back what reached the disk.
		var err error
		if store, err = dbase.OpenStoreFS(path, vfs.OS{}); err != nil {
			return err
		}
		defer store.Close()
	}
	rows, err := store.Experiments(c.Name)
	if err != nil {
		return err
	}
	lost, err := checkRows(rows, c.Name, c.NExperiments)
	if err != nil {
		return err
	}
	cr.failed += lost
	if err := checkReport(rep, c.NExperiments); err != nil {
		return err
	}
	return cr.digests.check(seed, rowDigest(rows, -1), rowDigest(rows, cr.shape.plainN))
}

// classify runs analysis.Classify; traced, it also counts the allocations
// the call makes (nothing else runs while it does).
func classify(tr *Tracer, prof *profile, store *dbase.Store, campaign string, n int, rep *analysis.Report) error {
	if tr == nil {
		r, err := analysis.Classify(store, campaign)
		*rep = r
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := tr.Record(0, layerAnalysis, spanClassify, func() (err error) {
		*rep, err = analysis.Classify(store, campaign)
		return err
	})
	prof.classifyNs += int64(time.Since(start))
	runtime.ReadMemStats(&after)
	prof.classifyAllocs += after.Mallocs - before.Mallocs
	prof.classifyExps += n
	return err
}

// removeStore deletes a campaign's database image and WAL sidecar.
func removeStore(path string) {
	matches, _ := filepath.Glob(path + "*")
	for _, m := range matches {
		os.Remove(m)
	}
}
