// CampaignRunMetrics: the durable side of the monitoring layer. Where
// LoggedSystemState records what each experiment did, CampaignRunMetrics
// records how the campaign engine ran — a time series of progress counters,
// per-phase durations and store latencies, one row per monitor interval plus
// one final row per run. Re-running a campaign (resume, or a fresh run after
// deletion) starts a new runId, so the table carries trajectories both
// across one run and across re-runs, and `goofi report` can join it against
// AnalysisResult for cross-campaign comparisons.
package dbase

import (
	"fmt"

	"goofi/internal/obsv"
	"goofi/internal/sqldb"
)

// RunMetricsRow is one row of CampaignRunMetrics: a point-in-time snapshot
// of a campaign run's engine metrics. Rows with Final set are the run's
// closing totals; the others are interval samples ordered by Seq.
type RunMetricsRow struct {
	CampaignName string
	// RunID numbers the runs of one campaign from 1; Seq numbers the
	// snapshots within a run from 0.
	RunID int64
	Seq   int64
	Final bool
	// ElapsedNs is wall-clock time since the run's loop started.
	ElapsedNs int64
	// Done/Total/Skipped mirror the Progress counters at snapshot time.
	Done    int
	Total   int
	Skipped int
	// Retries/Hangs/Quarantined are the fault-tolerance counters.
	Retries     int
	Hangs       int
	Quarantined int
	Workers     int
	// StoreCalls/StoreRows/StoreP95Ns summarise store traffic: total calls,
	// total rows moved, and the worst per-operation p95 latency.
	StoreCalls int64
	StoreRows  int64
	StoreP95Ns int64
	// PhaseNs is the accumulated duration of each leaf phase, indexed by
	// obsv.Phase.
	PhaseNs [obsv.NumPhases]int64
}

// runMetricsCols is the column count of CampaignRunMetrics.
const runMetricsCols = 15 + int(obsv.NumPhases)

// appendRunMetricsArgs renders one row in column order.
func appendRunMetricsArgs(args []sqldb.Value, r RunMetricsRow) []sqldb.Value {
	args = append(args,
		sqldb.Text(r.CampaignName), sqldb.Int64(r.RunID), sqldb.Int64(r.Seq),
		sqldb.Bool(r.Final), sqldb.Int64(r.ElapsedNs),
		sqldb.Int64(int64(r.Done)), sqldb.Int64(int64(r.Total)),
		sqldb.Int64(int64(r.Skipped)), sqldb.Int64(int64(r.Retries)),
		sqldb.Int64(int64(r.Hangs)), sqldb.Int64(int64(r.Quarantined)),
		sqldb.Int64(int64(r.Workers)), sqldb.Int64(r.StoreCalls),
		sqldb.Int64(r.StoreRows), sqldb.Int64(r.StoreP95Ns),
	)
	for _, ns := range r.PhaseNs {
		args = append(args, sqldb.Int64(ns))
	}
	return args
}

func runMetricsFromRow(v []sqldb.Value) RunMetricsRow {
	r := RunMetricsRow{
		CampaignName: v[0].Text,
		RunID:        v[1].Int,
		Seq:          v[2].Int,
		Final:        v[3].Int != 0,
		ElapsedNs:    v[4].Int,
		Done:         int(v[5].Int),
		Total:        int(v[6].Int),
		Skipped:      int(v[7].Int),
		Retries:      int(v[8].Int),
		Hangs:        int(v[9].Int),
		Quarantined:  int(v[10].Int),
		Workers:      int(v[11].Int),
		StoreCalls:   v[12].Int,
		StoreRows:    v[13].Int,
		StoreP95Ns:   v[14].Int,
	}
	for p := 0; p < int(obsv.NumPhases); p++ {
		r.PhaseNs[p] = v[15+p].Int
	}
	return r
}

// PutRunMetrics stores a batch of run-metrics rows in one store write of
// multi-row INSERTs. The campaign runner flushes its buffered
// interval snapshots plus the final row through this at the end of a run.
func (s *Store) PutRunMetrics(rows []RunMetricsRow) error {
	if len(rows) == 0 {
		return nil
	}
	defer s.timeOp("PutRunMetrics")(len(rows))
	return insertChunked(s, "CampaignRunMetrics", runMetricsCols, rows, appendRunMetricsArgs, nil)
}

// NextRunID returns the run number the campaign's next run should record
// under: one past the highest stored runId, starting at 1.
func (s *Store) NextRunID(campaign string) (int64, error) {
	done := s.timeOp("NextRunID")
	rows, err := s.db.Query(
		"SELECT runId FROM CampaignRunMetrics WHERE campaignName = ?",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return 0, fmt.Errorf("dbase: %w", err)
	}
	done(rows.Len())
	next := int64(1)
	for _, r := range rows.Data {
		if r[0].Int >= next {
			next = r[0].Int + 1
		}
	}
	return next, nil
}

// RunMetrics returns every stored metrics row of a campaign ordered by run
// and sequence number — the full time series across runs.
func (s *Store) RunMetrics(campaign string) ([]RunMetricsRow, error) {
	done := s.timeOp("RunMetrics")
	rows, err := s.db.Query(
		"SELECT * FROM CampaignRunMetrics WHERE campaignName = ? ORDER BY runId, seq",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]RunMetricsRow, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, runMetricsFromRow(r))
	}
	done(len(out))
	return out, nil
}

// FinalRunMetrics returns the closing row of each run of a campaign in run
// order — one totals row per run, the series `goofi report` charts across
// re-runs.
func (s *Store) FinalRunMetrics(campaign string) ([]RunMetricsRow, error) {
	all, err := s.RunMetrics(campaign)
	if err != nil {
		return nil, err
	}
	out := make([]RunMetricsRow, 0, len(all))
	for _, r := range all {
		if r.Final {
			out = append(out, r)
		}
	}
	return out, nil
}
