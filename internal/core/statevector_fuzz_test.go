package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"goofi/internal/dbase"
	"goofi/internal/faultmodel"
	"goofi/internal/target"
	"goofi/internal/workload"
)

// controlReferenceRow runs a one-experiment control-loop campaign and
// returns its encoded reference state vector: the largest env history a
// real campaign logs.
func controlReferenceRow(tb testing.TB) []byte {
	tb.Helper()
	store, err := dbase.NewMemoryStore()
	if err != nil {
		tb.Fatal(err)
	}
	defer store.Close()
	ops := target.NewDefaultThorTarget()
	if err := RegisterTarget(store, ops, "simulated Thor RD"); err != nil {
		tb.Fatal(err)
	}
	c := Campaign{
		Name:           "fuzz-ctl",
		Workload:       workload.Control(),
		Technique:      TechSCIFI,
		Model:          faultmodel.Model{Kind: faultmodel.Transient},
		LocationFilter: "chain:internal.core",
		NExperiments:   1,
		Seed:           1,
		InjectMinTime:  100,
		InjectMaxTime:  3500,
	}
	if _, err := NewRunner(ops, store, c).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	ref, err := store.GetExperiment(c.Name + RefSuffix)
	if err != nil {
		tb.Fatal(err)
	}
	return ref.StateVector
}

// FuzzDecodeStateVector feeds arbitrary bytes to the state-vector decoder,
// which reads rows straight from the database. Decode must never panic,
// every accepted input must re-encode to exactly itself, and decoded env
// iterations must be cap-clamped so appending to one cannot overwrite the
// next.
func FuzzDecodeStateVector(f *testing.F) {
	f.Add(controlReferenceRow(f))
	f.Add(sampleSV().Encode())
	// Variable-width iterations, including an empty one.
	f.Add((&StateVector{Env: [][]uint32{{1}, {}, {2, 3, 4}, {5, 6}}}).Encode())
	for _, blob := range hostileEnvBlobs() {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sv, err := DecodeStateVector(data)
		if err != nil {
			return
		}
		if got := sv.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", got, data)
		}
		for i := 0; i+1 < len(sv.Env); i++ {
			next := append([]uint32(nil), sv.Env[i+1]...)
			_ = append(sv.Env[i], 0xDEADBEEF)
			if !slices.Equal(sv.Env[i+1], next) {
				t.Fatalf("append to iteration %d overwrote iteration %d", i, i+1)
			}
		}
	})
}
