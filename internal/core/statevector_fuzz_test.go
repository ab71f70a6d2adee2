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

// decodeSeeds is the seed corpus of the state-vector fuzz targets: a real
// control-loop reference row, the sample vector, variable-width env
// iterations (including an empty one) and the hostile env blobs.
func decodeSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		controlReferenceRow(tb),
		sampleSV().Encode(),
		(&StateVector{Env: [][]uint32{{1}, {}, {2, 3, 4}, {5, 6}}}).Encode(),
	}
	for _, blob := range hostileEnvBlobs() {
		seeds = append(seeds, blob)
	}
	return seeds
}

// FuzzDecodeStateVector feeds arbitrary bytes to the state-vector decoder,
// which reads rows straight from the database. Decode must never panic,
// every accepted input must re-encode to exactly itself, and decoded env
// iterations must be cap-clamped so appending to one cannot overwrite the
// next.
func FuzzDecodeStateVector(f *testing.F) {
	for _, blob := range decodeSeeds(f) {
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

// sectionVariants are valid vectors that differ from sampleSV in exactly
// one way each, so pairs of them exercise every outcome of the section
// comparison: chain data, chain name and chain width (latent), a memory
// word, an env word and the env iteration split over the same words
// (escaped), and the trace alone (equal on both sections).
func sectionVariants() [][]byte {
	mods := []func(sv *StateVector){
		func(sv *StateVector) {},
		func(sv *StateVector) { sv.Chains[0].Data = []byte{0xAB, 0x04} },
		func(sv *StateVector) { sv.Chains[1].Name = "boundary.pinz" },
		func(sv *StateVector) { sv.Chains[1].Bits = 4 },
		func(sv *StateVector) { sv.Memory[1].Value = 99 },
		func(sv *StateVector) { sv.Env[1][0] = 4 },
		func(sv *StateVector) { sv.Env = [][]uint32{{1}, {2, 3}} },
		func(sv *StateVector) { sv.Trace = sv.Trace[:1] },
	}
	out := make([][]byte, len(mods))
	for i, mod := range mods {
		sv := sampleSV()
		mod(sv)
		out[i] = sv.Encode()
	}
	return out
}

// FuzzStateSections is the differential oracle of classification on
// sections: StateSections and DecodeStateVector reject exactly the same
// inputs with the same error, and for two valid vectors the outputs spans
// are equal exactly when OutputsEqual holds after decoding, and both spans
// exactly when StateEqual holds. Besides the decode corpus it seeds pairs of
// single-difference variants and a control-loop row with one env word
// flipped.
func FuzzStateSections(f *testing.F) {
	seeds := decodeSeeds(f)
	for _, a := range seeds {
		f.Add(a, a)
		f.Add(a, seeds[1])
	}
	variants := sectionVariants()
	for _, a := range variants {
		for _, b := range variants {
			f.Add(a, b)
		}
	}
	ctl := seeds[0]
	sv, err := DecodeStateVector(ctl)
	if err != nil {
		f.Fatal(err)
	}
	sv.Env[len(sv.Env)/2][0] ^= 1
	f.Add(ctl, sv.Encode())

	f.Fuzz(func(t *testing.T, a, b []byte) {
		chainsA, outA, errA := StateSections(a)
		chainsB, outB, errB := StateSections(b)
		svA, decErrA := DecodeStateVector(a)
		svB, decErrB := DecodeStateVector(b)
		for _, e := range [][2]error{{errA, decErrA}, {errB, decErrB}} {
			if (e[0] == nil) != (e[1] == nil) || (e[0] != nil && e[0].Error() != e[1].Error()) {
				t.Fatalf("sections error %v, decode error %v", e[0], e[1])
			}
		}
		if errA != nil || errB != nil {
			return
		}
		outputsEqual := bytes.Equal(outA, outB)
		if outputsEqual != svA.OutputsEqual(svB) {
			t.Fatalf("outputs spans equal %v, OutputsEqual %v", outputsEqual, svA.OutputsEqual(svB))
		}
		stateEqual := outputsEqual && bytes.Equal(chainsA, chainsB)
		if stateEqual != svA.StateEqual(svB) {
			t.Fatalf("both spans equal %v, StateEqual %v", stateEqual, svA.StateEqual(svB))
		}
	})
}
