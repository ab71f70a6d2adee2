//go:build !race

package sqldb

import (
	"runtime"
	"strings"
	"testing"
)

// The race detector pads small allocations (a paramExpr takes 16 bytes
// instead of 8), so heap growth is measured only in normal builds.

// TestStatementCostCoversRetainedHeap checks that stmtCost does not
// understate what a parsed statement keeps alive, for the statement shapes
// the campaign store issues: the heap growth of holding many parsed copies,
// per copy, stays within the estimate.
func TestStatementCostCoversRetainedHeap(t *testing.T) {
	row := "(?, ?, ?, ?, ?, ?, ?, ?, ?)"
	for _, q := range []string{
		"INSERT INTO LoggedSystemState VALUES " + strings.Repeat(row+", ", 255) + row,
		"INSERT INTO FaultLocation VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)",
		"SELECT * FROM LoggedSystemState WHERE campaignName = ? ORDER BY experimentName",
		"SELECT mechanism, COUNT(*) FROM AnalysisResult WHERE campaignName = ? AND outcome = 'detected' GROUP BY mechanism",
		"DELETE FROM AnalysisResult WHERE experimentName IN (?" + strings.Repeat(", ?", 63) + ")",
		"UPDATE exp SET cycles = cycles + ?, parent = NULL WHERE name = ? AND run = ?",
		`CREATE TABLE IF NOT EXISTS CampaignData (campaignName TEXT PRIMARY KEY, testCardName TEXT NOT NULL,
			seed INTEGER NOT NULL, detailMode INTEGER NOT NULL DEFAULT 0, notes TEXT DEFAULT 'none',
			FOREIGN KEY (testCardName) REFERENCES TargetSystemData (testCardName))`,
		`CREATE TABLE IF NOT EXISTS CampaignRunMetrics (campaignName TEXT NOT NULL, runId INTEGER NOT NULL,
			seq INTEGER NOT NULL, isFinal INTEGER NOT NULL, elapsedNs INTEGER NOT NULL, done INTEGER NOT NULL,
			PRIMARY KEY (campaignName, runId, seq),
			FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName))`,
	} {
		// Each copy holds its own text, allocated before the measurement
		// and added back below. The smallest of three readings discards
		// allocations made elsewhere in the process meanwhile.
		const copies = 64
		texts := make([]string, copies)
		for i := range texts {
			texts[i] = string([]byte(q))
		}
		perCopy := -1
		for trial := 0; trial < 3; trial++ {
			held := make([]statement, copies)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range held {
				st, err := parse(texts[i])
				if err != nil {
					t.Fatal(err)
				}
				held[i] = st
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(held)
			if n := (int(after.HeapAlloc) - int(before.HeapAlloc)) / copies; perCopy < 0 || n < perCopy {
				perCopy = n
			}
		}
		st, _ := parse(q)
		cost, ok := stmtCost(q, st)
		if !ok {
			t.Fatalf("%.40q: not cacheable", q)
		}
		if retained := perCopy + len(q); retained > cost {
			t.Errorf("%.40q: retains ~%d bytes per parse, estimate %d", q, retained, cost)
		}
	}
}
