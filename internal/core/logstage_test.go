package core

import (
	"context"
	"sync"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/target"
)

// gatedStore blocks every PutExperiments call until the test releases it,
// announcing the call's batch size first, and counts the rows it has
// acknowledged.
type gatedStore struct {
	CampaignStore
	calls   chan int
	release chan struct{}

	mu    sync.Mutex
	acked int
}

func (s *gatedStore) PutExperiments(rows []dbase.ExperimentRow) error {
	s.calls <- len(rows)
	<-s.release
	if err := s.CampaignStore.PutExperiments(rows); err != nil {
		return err
	}
	s.mu.Lock()
	s.acked += len(rows)
	s.mu.Unlock()
	return nil
}

func (s *gatedStore) ackedRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// TestLogStageOverlapsExperiments drives the logging stage with a store that
// holds every batched insert until the test releases it, at pool widths 1
// (a sequential campaign) and 2, plain and with checkpoint forking. While an insert of b rows is blocked with
// `acked` rows already acknowledged, the campaign must keep running and
// accounting experiments until the stage's queue is full, i.e. until
// progress reaches acked+b+maxLogBatch (or the end of the campaign), and no
// progress event may ever run more than 2×maxLogBatch rows ahead of the
// store. Run must not return while an insert is blocked, and when it returns
// every row must be acknowledged.
func TestLogStageOverlapsExperiments(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    int
		fork bool
	}{{"W1", 1, false}, {"W2", 2, false}, {"fork-W1", 1, true}, {"fork-W2", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3 * maxLogBatch
			c := scifiCampaign("stage-"+tc.name, n)
			c.Workers = tc.w
			c.Fork = tc.fork
			ops, store := newEnv(t)
			gs := &gatedStore{CampaignStore: store, calls: make(chan int), release: make(chan struct{})}
			r := NewRunner(ops, gs, c)
			r.Factory = target.DefaultThorFactory()
			progress := make(chan int, n+2)
			maxAhead := 0 // touched only by OnProgress until Run returns
			r.OnProgress = func(p Progress) {
				maxAhead = max(maxAhead, p.Done-gs.ackedRows())
				progress <- p.Done
			}
			runDone := make(chan error, 1)
			go func() {
				_, err := r.Run(context.Background())
				runDone <- err
			}()

			done, overlapped := 0, false
			for {
				select {
				case b := <-gs.calls:
					acked := gs.ackedRows()
					for ceiling := min(acked+b+maxLogBatch, n); done < ceiling; {
						done = <-progress
					}
					overlapped = overlapped || done > acked+b
					select {
					case <-runDone:
						t.Fatal("Run returned while a PutExperiments call was blocked")
					default:
					}
					gs.release <- struct{}{}
				case err := <-runDone:
					if err != nil {
						t.Fatal(err)
					}
					if got := gs.ackedRows(); got != n {
						t.Fatalf("Run returned with %d of %d rows acknowledged", got, n)
					}
					if !overlapped {
						t.Fatal("no experiment completed while an insert was blocked")
					}
					if maxAhead != 2*maxLogBatch {
						t.Fatalf("progress ran at most %d rows ahead of the store, want exactly 2×maxLogBatch = %d",
							maxAhead, 2*maxLogBatch)
					}
					if rows := campaignRows(t, store, c.Name); len(rows) != n+1 {
						t.Fatalf("rows = %d, want %d", len(rows), n+1)
					}
					return
				}
			}
		})
	}
}
