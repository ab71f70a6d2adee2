// ExperimentTraceEvents: the durable side of provenance tracing. The live
// ring journal (obsv.Journal) holds a campaign run's wide events while it
// executes; draining it through PutTraceJournal persists the events under a
// fresh runId, FK-linked to CampaignData like every other per-campaign table.
// `goofi trace` and the service's /trace endpoint read them back with
// TraceEvents.
package dbase

import (
	"fmt"

	"goofi/internal/obsv"
	"goofi/internal/sqldb"
)

// traceEventCols is the column count of ExperimentTraceEvents.
const traceEventCols = 12

// appendTraceEventArgs renders one wide event in column order.
func appendTraceEventArgs(args []sqldb.Value, campaign string, runID int64, ev obsv.WideEvent) []sqldb.Value {
	exp := sqldb.Null()
	if ev.Experiment != "" {
		exp = sqldb.Text(ev.Experiment)
	}
	detail := sqldb.Null()
	if ev.Detail != "" {
		detail = sqldb.Text(ev.Detail)
	}
	return append(args,
		sqldb.Text(campaign), sqldb.Int64(runID), sqldb.Int64(ev.Seq),
		sqldb.Int64(ev.TimeNs), sqldb.Int64(ev.DurNs), sqldb.Text(ev.Kind),
		sqldb.Int64(int64(ev.Shard)), exp, sqldb.Int64(int64(ev.Index)),
		sqldb.Int64(int64(ev.Attempt)), sqldb.Int64(int64(ev.TID)), detail,
	)
}

func traceEventFromRow(v []sqldb.Value) obsv.WideEvent {
	ev := obsv.WideEvent{
		RunID:   v[1].Int,
		Seq:     v[2].Int,
		TimeNs:  v[3].Int,
		DurNs:   v[4].Int,
		Kind:    v[5].Text,
		Shard:   int(v[6].Int),
		Index:   int(v[8].Int),
		Attempt: int(v[9].Int),
		TID:     int32(v[10].Int),
	}
	ev.Campaign = v[0].Text
	if !v[7].IsNull() {
		ev.Experiment = v[7].Text
	}
	if !v[11].IsNull() {
		ev.Detail = v[11].Text
	}
	return ev
}

// NextTraceRunID returns the run number the campaign's next drained journal
// should persist under: one past the highest stored runId, starting at 1.
func (s *Store) NextTraceRunID(campaign string) (int64, error) {
	done := s.timeOp("NextTraceRunID")
	rows, err := s.db.Query(
		"SELECT runId FROM ExperimentTraceEvents WHERE campaignName = ?",
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

// PutTraceEvents persists a batch of wide events under (campaign, runID)
// in one store write of multi-row INSERTs. Events keep
// the Seq the journal assigned; an event's own Campaign field is ignored in
// favour of the argument so merged journals land under one name.
func (s *Store) PutTraceEvents(campaign string, runID int64, events []obsv.WideEvent) error {
	if len(events) == 0 {
		return nil
	}
	defer s.timeOp("PutTraceEvents")(len(events))
	return insertChunked(s, "ExperimentTraceEvents", traceEventCols, events,
		func(args []sqldb.Value, ev obsv.WideEvent) []sqldb.Value {
			return appendTraceEventArgs(args, campaign, runID, ev)
		}, nil)
}

// PutTraceJournal drains a live journal into the store under a fresh runId
// and returns that runId (0, nil for a nil or empty journal — tracing off is
// not an error). The journal keeps its events; draining only copies.
func (s *Store) PutTraceJournal(campaign string, j *obsv.Journal) (int64, error) {
	events := j.Events()
	if len(events) == 0 {
		return 0, nil
	}
	runID, err := s.NextTraceRunID(campaign)
	if err != nil {
		return 0, err
	}
	if err := s.PutTraceEvents(campaign, runID, events); err != nil {
		return 0, err
	}
	return runID, nil
}

// TraceEvents returns every persisted wide event of a campaign in causal
// order (time, then journal sequence) across all runs.
func (s *Store) TraceEvents(campaign string) ([]obsv.WideEvent, error) {
	done := s.timeOp("TraceEvents")
	rows, err := s.db.Query(
		"SELECT * FROM ExperimentTraceEvents WHERE campaignName = ? ORDER BY runId, seq",
		sqldb.Text(campaign))
	if err != nil {
		done(0)
		return nil, fmt.Errorf("dbase: %w", err)
	}
	out := make([]obsv.WideEvent, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, traceEventFromRow(r))
	}
	done(len(out))
	obsv.SortEvents(out)
	return out, nil
}
