package dbase

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"goofi/internal/sqldb"
	"goofi/internal/vfs"
)

// fillCampaignStore writes what one campaign leaves in its store: a target
// with a 546-location inventory, the campaign row, n experiments with
// state vectors of a few KB, and their analysis rows. Every write is
// acknowledged before fillCampaignStore returns.
func fillCampaignStore(s *Store, n int) error {
	locs := make([]LocationRow, 546)
	for i := range locs {
		locs[i] = LocationRow{TestCardName: "thor-rd", LocationName: fmt.Sprintf("internal.core/r%d", i),
			ChainName: "internal.core", FirstBit: 32 * i, Width: 32, Writable: i%5 != 0}
	}
	if err := s.PutTargetSystem(sampleTarget(), locs...); err != nil {
		return err
	}
	if err := s.PutCampaign(sampleCampaign("ckpt")); err != nil {
		return err
	}
	rows := makeExperiments("ckpt", n)
	rng := rand.New(rand.NewSource(1))
	analysis := make([]AnalysisRow, n)
	for i := range rows {
		rows[i].StateVector = make([]byte, 2400+rng.Intn(400))
		rng.Read(rows[i].StateVector)
		analysis[i] = AnalysisRow{ExperimentName: rows[i].ExperimentName, CampaignName: "ckpt", Outcome: "latent"}
	}
	if err := s.PutExperiments(rows); err != nil {
		return err
	}
	return s.PutAnalysis(analysis)
}

// TestCheckpointCrashSweep power-cuts a WAL store's close-time Save and
// Close at every filesystem op, then recovers it: every acknowledged row is
// present, and the database is the one before the checkpoint (generation
// 0, rows from the WAL) or after it (generation 1, rows from the image).
func TestCheckpointCrashSweep(t *testing.T) {
	opts := sqldb.WALOptions{SyncEvery: 1}
	fill := func(path string, fsys vfs.FS) (*Store, error) {
		s, err := OpenStoreWALFS(path, fsys, opts)
		if err != nil {
			return nil, err
		}
		if err := fillCampaignStore(s, 64); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	calib, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fill(filepath.Join(t.TempDir(), "camp.db"), calib)
	if err != nil {
		t.Fatal(err)
	}
	want := s.DB().Dump()
	first := calib.Stats().Ops + 1
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	last := calib.Stats().Ops

	seen := map[uint64]bool{}
	for k := first; k <= last; k++ {
		path := filepath.Join(t.TempDir(), "camp.db")
		fsys, err := vfs.NewFaulty(vfs.OS{}, vfs.FaultyConfig{NonDurableRenames: true, CrashAtOp: k})
		if err != nil {
			t.Fatal(err)
		}
		s, err := fill(path, fsys)
		if err != nil {
			t.Fatalf("crash at op %d: filling before the crash point: %v", k, err)
		}
		_ = s.Save() // fails from op k on
		_ = s.Close()
		if err := fsys.Crash(); err != nil {
			t.Fatal(err)
		}
		fsys.ClearCrashPoint()
		got, err := OpenStoreFS(path, fsys)
		if err != nil {
			t.Fatalf("crash at op %d of Save and Close (ops %d–%d): recover: %v", k, first, last, err)
		}
		if got.DB().Dump() != want {
			t.Fatalf("crash at op %d of Save and Close (ops %d–%d): recovered database differs from the acknowledged one", k, first, last)
		}
		seen[got.DB().WALStats().Generation] = true
	}
	t.Logf("swept ops %d–%d", first, last)
	if !seen[0] || !seen[1] || len(seen) != 2 {
		t.Fatalf("sweep over ops %d–%d recovered generations %v, want both 0 and 1", first, last, seen)
	}
}

// benchCampaignStore builds a closed WAL store holding a campaign of n
// experiments and returns its path.
func benchCampaignStore(b *testing.B, n int) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "camp.db")
	s, err := OpenStoreWAL(path, sqldb.WALOptions{SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := fillCampaignStore(s, n); err != nil {
		b.Fatal(err)
	}
	if err := s.Save(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func imageBytes(b *testing.B, path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return float64(st.Size())
}

// BenchmarkCheckpoint times the close-time Save of a WAL store holding a
// campaign: the image write and the WAL reset.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprintf("exp=%d", n), func(b *testing.B) {
			path := benchCampaignStore(b, n)
			s, err := OpenStoreWAL(path, sqldb.WALOptions{SyncEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Save(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(imageBytes(b, path), "image-bytes")
		})
	}
}

// BenchmarkReopen times opening a saved campaign store, as `goofi analyze`,
// resume and the output checks do: the image load and the schema install.
func BenchmarkReopen(b *testing.B) {
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprintf("exp=%d", n), func(b *testing.B) {
			path := benchCampaignStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenStore(path)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			b.StopTimer()
			b.ReportMetric(imageBytes(b, path), "image-bytes")
		})
	}
}
