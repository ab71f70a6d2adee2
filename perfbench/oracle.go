package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"goofi/internal/analysis"
	"goofi/internal/core"
	"goofi/internal/dbase"
	"goofi/internal/target"
)

// rowDigest is the SHA-256 of a campaign's rows in name order: name without
// the campaign prefix, termination reason, cycles and state vector. With
// limit >= 0 only the reference row and experiments below index limit count.
func rowDigest(rows []dbase.ExperimentRow, limit int) string {
	sorted := make([]dbase.ExperimentRow, 0, len(rows))
	for _, r := range rows {
		if i := expIndex(r.ExperimentName); limit < 0 || i < limit {
			sorted = append(sorted, r)
		}
	}
	suffix := func(name string) string { return name[strings.LastIndexByte(name, '/')+1:] }
	sort.Slice(sorted, func(i, j int) bool {
		return suffix(sorted[i].ExperimentName) < suffix(sorted[j].ExperimentName)
	})
	h := sha256.New()
	var buf [8]byte
	for _, r := range sorted {
		fmt.Fprintf(h, "%s\x00%s\x00", suffix(r.ExperimentName), r.TerminationReason)
		binary.LittleEndian.PutUint64(buf[:], r.Cycles)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(r.StateVector)))
		h.Write(buf[:])
		h.Write(r.StateVector)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRows verifies that every experiment of an n-experiment campaign and
// its reference run are logged exactly once, and counts the rows that record
// a lost experiment (failed or hung).
func checkRows(rows []dbase.ExperimentRow, campaign string, n int) (lost int, err error) {
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if seen[r.ExperimentName] {
			return 0, fmt.Errorf("oracle: %s logged twice", r.ExperimentName)
		}
		seen[r.ExperimentName] = true
		if r.TerminationReason == core.TermFailed || r.TerminationReason == core.TermHang {
			lost++
		}
	}
	if !seen[campaign+core.RefSuffix] {
		return 0, fmt.Errorf("oracle: %s has no reference row", campaign)
	}
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf("%s/e%04d", campaign, i); !seen[name] {
			return 0, fmt.Errorf("oracle: %s missing", name)
		}
	}
	if len(rows) != n+1 {
		return 0, fmt.Errorf("oracle: %s has %d rows, want %d", campaign, len(rows), n+1)
	}
	return lost, nil
}

// checkReport verifies Classify's accounting: every experiment is either
// classified or counted failed.
func checkReport(rep analysis.Report, n int) error {
	if rep.Total+rep.Failed != n {
		return fmt.Errorf("oracle: %s report total %d + failed %d != %d", rep.Campaign, rep.Total, rep.Failed, n)
	}
	return nil
}

// digestBook holds the first digest seen per campaign seed; every later
// campaign of that seed, traced or not, must reproduce it.
type digestBook struct {
	mu     sync.Mutex
	first  map[int64]string
	prefix map[int64]string // digest of the rows the plain-engine check compares
}

func newDigestBook() *digestBook {
	return &digestBook{first: map[int64]string{}, prefix: map[int64]string{}}
}

func (b *digestBook) check(seed int64, full, prefix string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d, ok := b.first[seed]; ok {
		if d != full {
			return fmt.Errorf("oracle: seed %d rows digest %s differs from earlier run %s", seed, full[:12], d[:12])
		}
		return nil
	}
	b.first[seed], b.prefix[seed] = full, prefix
	return nil
}

// plainRun runs c on the plain sequential engine — no forking, no pool, no
// wrappers, a fresh memory store — and returns its rows and report. It is
// the untimed reference the oracle compares every workload against.
func plainRun(c core.Campaign) ([]dbase.ExperimentRow, analysis.Report, error) {
	c.Fork, c.Workers = false, 0
	store, err := dbase.NewMemoryStore()
	if err != nil {
		return nil, analysis.Report{}, err
	}
	defer store.Close()
	ops := target.NewDefaultThorTarget()
	if err := core.RegisterTarget(store, ops, "perfbench reference"); err != nil {
		return nil, analysis.Report{}, err
	}
	if _, err := core.NewRunner(ops, store, c).Run(context.Background()); err != nil {
		return nil, analysis.Report{}, fmt.Errorf("oracle: reference run: %w", err)
	}
	rows, err := store.Experiments(c.Name)
	if err != nil {
		return nil, analysis.Report{}, err
	}
	rep, err := analysis.Classify(store, c.Name)
	return rows, rep, err
}

// checkAgainstPlain compares every seed's recorded prefix digest with a
// plain-engine run of n experiments of the same campaign.
func (b *digestBook) checkAgainstPlain(build func(seed int64) core.Campaign, n int) error {
	for seed, want := range b.prefix {
		c := build(seed)
		c.Name, c.NExperiments = "plain", n
		rows, _, err := plainRun(c)
		if err != nil {
			return err
		}
		if got := rowDigest(rows, -1); got != want {
			return fmt.Errorf("oracle: seed %d: first %d rows differ from the plain engine (%s vs %s)", seed, n, want[:12], got[:12])
		}
	}
	return nil
}
