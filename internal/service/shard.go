package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/obsv"
)

// runSharded executes one campaign split across Spec.Shards in-process shard
// runners and reassembles their rows into the tenant store.
//
// Each shard gets its own private in-memory store (the SQL engine is not
// verified thread-safe, so shards must not share one) pre-seeded with the
// tenant store's target row and already-logged rows, and a fresh target
// instance. Every
// shard draws the complete seeded plan stream but executes only its own
// indices, so the merged row set is bit-identical to a single-process run —
// the pre-drawn-plan determinism argument, extended across stores.
//
// The merge runs even when shards were interrupted: whatever rows they
// logged land in the WAL-backed tenant store, which is exactly what resume
// after a drain needs.
func (s *Server) runSharded(ctx context.Context, j *job, tenant *dbase.Store) (core.Summary, error) {
	shards := j.spec.Shards

	// Resume state: rows the tenant store already holds are seeded into
	// every shard (so shard runners skip them) and excluded from the merge.
	existing, err := tenant.Experiments(j.c.Name)
	if err != nil {
		return core.Summary{}, fmt.Errorf("service: %s: read resume rows: %w", j.spec.ID(), err)
	}
	existingNames := make(map[string]bool, len(existing))
	for _, row := range existing {
		existingNames[row.ExperimentName] = true
	}
	var campRow *dbase.CampaignRow
	if len(existing) > 0 {
		row, err := tenant.GetCampaign(j.c.Name)
		if err != nil {
			return core.Summary{}, fmt.Errorf("service: %s: read campaign row: %w", j.spec.ID(), err)
		}
		campRow = &row
	}

	// Set every shard up before starting any, so a set-up error leaves
	// nothing running.
	stores := make([]*dbase.Store, shards)
	runners := make([]*core.Runner, shards)
	var ts dbase.TargetSystem
	for si := range runners {
		ops, factory, err := buildTarget(j.spec)
		if err != nil {
			return core.Summary{}, err
		}
		if si == 0 {
			if ts, err = tenant.GetTargetSystem(ops.Name()); err != nil {
				return core.Summary{}, fmt.Errorf("service: %s: read target row: %w", j.spec.ID(), err)
			}
		}
		if stores[si], err = shardStore(ts, campRow, existing); err != nil {
			return core.Summary{}, err
		}
		r := core.NewRunner(ops, stores[si], j.c)
		r.Factory = factory
		r.Recorder = j.rec
		r.Logger = s.log
		r.ShardIndex, r.ShardCount = si, shards
		runners[si] = r
	}

	// agg holds the latest progress of every shard; a ticker goroutine sums
	// them into campaign-wide event frames on the job's broadcaster.
	agg := &shardAggregator{
		j:     j,
		total: j.c.NExperiments,
		last:  make([]core.Progress, shards),
		start: time.Now(),
	}
	stopAgg := make(chan struct{})
	aggDone := make(chan struct{})
	go agg.loop(s.opts.MonitorInterval, stopAgg, aggDone)

	sums := make([]core.Summary, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for si, r := range runners {
		r.OnProgress = agg.observe(si)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[si], errs[si] = r.Run(ctx)
		}()
	}
	wg.Wait()
	close(stopAgg)
	<-aggDone

	// Reassemble: every shard contributes its owned rows; the reference row
	// (and any pre-seeded resume rows) appear in several shards and are kept
	// once. Sorted batch insert keeps the tenant store's row order equal to
	// a single-process run's name order.
	merged := map[string]dbase.ExperimentRow{}
	for si, mem := range stores {
		rows, rerr := mem.Experiments(j.c.Name)
		if rerr != nil {
			return core.Summary{}, fmt.Errorf("service: %s: shard %d rows: %w", j.spec.ID(), si, rerr)
		}
		for _, row := range rows {
			if existingNames[row.ExperimentName] {
				continue
			}
			merged[row.ExperimentName] = row
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]dbase.ExperimentRow, 0, len(names))
	for _, name := range names {
		out = append(out, merged[name])
	}
	if len(out) > 0 {
		if err := s.ensureTenantCampaignRow(j, tenant, stores[0]); err != nil {
			return core.Summary{}, err
		}
		if err := tenant.PutExperiments(out); err != nil {
			return core.Summary{}, fmt.Errorf("service: %s: merge %d rows: %w", j.spec.ID(), len(out), err)
		}
	}

	sum := mergeSummaries(j.c.Name, sums)
	agg.final(sum)

	// Error policy: a real failure outranks a stop; any stopped shard marks
	// the whole campaign stopped (its merged rows make the resume).
	var stopped bool
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, core.ErrStopped):
			stopped = true
		default:
			return sum, e
		}
	}
	if stopped {
		return sum, core.ErrStopped
	}
	return sum, nil
}

// shardStore builds one shard's private memory store, seeded from the tenant
// store: the target row (the foreign-key parent of CampaignData), the
// campaign row when the campaign is resuming, and the rows already logged.
// The fault-location catalogue is not copied; shard runners never read it.
func shardStore(ts dbase.TargetSystem, campRow *dbase.CampaignRow, existing []dbase.ExperimentRow) (*dbase.Store, error) {
	mem, err := dbase.NewMemoryStore()
	if err != nil {
		return nil, err
	}
	if err := mem.PutTargetSystem(ts); err != nil {
		return nil, err
	}
	if campRow != nil {
		if err := mem.PutCampaign(*campRow); err != nil {
			return nil, err
		}
	}
	if len(existing) > 0 {
		if err := mem.PutExperiments(existing); err != nil {
			return nil, err
		}
	}
	return mem, nil
}

// ensureTenantCampaignRow copies the campaign definition row from a shard
// store into the tenant store on the campaign's first merge — shard runners
// write it to their memory stores, but the tenant store needs it before
// experiment rows can reference it.
func (s *Server) ensureTenantCampaignRow(j *job, tenant, shard *dbase.Store) error {
	if _, err := tenant.GetCampaign(j.c.Name); err == nil {
		return nil
	} else if !errors.Is(err, dbase.ErrNotFound) {
		return err
	}
	row, err := shard.GetCampaign(j.c.Name)
	if err != nil {
		return fmt.Errorf("service: %s: shard campaign row: %w", j.spec.ID(), err)
	}
	return tenant.PutCampaign(row)
}

// mergeSummaries folds per-shard summaries into the campaign-wide one.
func mergeSummaries(campaign string, sums []core.Summary) core.Summary {
	out := core.Summary{Campaign: campaign}
	for _, s := range sums {
		out.Completed += s.Completed
		out.Skipped += s.Skipped
		out.Retries += s.Retries
		out.Hangs += s.Hangs
		out.Quarantined += s.Quarantined
		for k, v := range s.Terminations {
			if out.Terminations == nil {
				out.Terminations = map[string]int{}
			}
			out.Terminations[k] += v
		}
		for k, v := range s.Detections {
			if out.Detections == nil {
				out.Detections = map[string]int{}
			}
			out.Detections[k] += v
		}
	}
	return out
}

// shardAggregator sums per-shard progress into campaign-wide CampaignEvent
// frames on the job's broadcaster, replacing the single-runner monitor that
// an unsharded campaign would have.
type shardAggregator struct {
	j     *job
	total int
	start time.Time

	mu   sync.Mutex
	last []core.Progress
}

// observe returns the OnProgress hook of one shard.
func (a *shardAggregator) observe(si int) func(core.Progress) {
	return func(p core.Progress) {
		a.mu.Lock()
		a.last[si] = p
		a.mu.Unlock()
	}
}

func (a *shardAggregator) loop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.j.events.Publish(a.frame(false))
		case <-stop:
			return
		}
	}
}

// frame sums the latest shard progress into one event. Runs on the
// aggregator goroutine and, for the final frame, after every shard exited.
func (a *shardAggregator) frame(final bool) obsv.CampaignEvent {
	a.mu.Lock()
	var p core.Progress
	for _, lp := range a.last {
		p.Done += lp.Done
		p.Skipped += lp.Skipped
		p.Detected += lp.Detected
		p.Retries += lp.Retries
		p.Hangs += lp.Hangs
		p.Quarantined += lp.Quarantined
		if lp.LastOutcome != "" {
			p.LastOutcome = lp.LastOutcome
		}
	}
	seq := a.j.seq
	a.j.seq++
	a.mu.Unlock()

	elapsed := time.Since(a.start)
	ev := obsv.CampaignEvent{
		Campaign:    a.j.c.Name,
		Seq:         seq,
		ElapsedNs:   int64(elapsed),
		Done:        p.Done,
		Total:       a.total,
		Skipped:     p.Skipped,
		Detected:    p.Detected,
		Retries:     p.Retries,
		Hangs:       p.Hangs,
		Quarantined: p.Quarantined,
		Workers:     max(a.j.c.Workers, 1) * len(a.last),
		LastOutcome: p.LastOutcome,
		Final:       final,
	}
	if secs := elapsed.Seconds(); secs > 0 && p.Done > 0 {
		ev.RatePerSec = float64(p.Done) / secs
		if rem := a.total - p.Done; rem > 0 {
			ev.EtaNs = int64(float64(rem) / ev.RatePerSec * 1e9)
		}
	}
	return ev
}

// final publishes the terminal frame from the merged summary, so watchers
// see counters that match the reassembled result exactly.
func (a *shardAggregator) final(sum core.Summary) {
	a.mu.Lock()
	seq := a.j.seq
	a.j.seq++
	a.mu.Unlock()
	n := 0
	for _, v := range sum.Detections {
		n += v
	}
	a.j.events.Publish(obsv.CampaignEvent{
		Campaign:    a.j.c.Name,
		Seq:         seq,
		ElapsedNs:   int64(time.Since(a.start)),
		Done:        sum.Completed + sum.Skipped,
		Total:       a.total,
		Skipped:     sum.Skipped,
		Detected:    n,
		Retries:     sum.Retries,
		Hangs:       sum.Hangs,
		Quarantined: sum.Quarantined,
		Workers:     max(a.j.c.Workers, 1) * len(a.last),
		Final:       true,
	})
	// Sharded runs publish through the service, not a runner monitor, so the
	// service also ends the stream.
	a.j.events.Close()
}
