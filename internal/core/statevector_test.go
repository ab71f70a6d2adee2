package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

func sampleSV() *StateVector {
	return &StateVector{
		Chains: []ChainState{
			{Name: "internal.core", Bits: 12, Data: []byte{0xAB, 0x05}},
			{Name: "boundary.pins", Bits: 3, Data: []byte{0x07}},
		},
		Memory: []MemWord{{Addr: 0x4000, Value: 7}, {Addr: 0x4004, Value: 9}},
		Env:    [][]uint32{{1, 2}, {3}},
		Trace: []TraceSample{
			{Cycle: 0, PC: 0, Disasm: "NOP", Core: []byte{1}},
			{Cycle: 1, PC: 4, Disasm: "HALT", Core: []byte{2}},
		},
	}
}

func TestStateVectorRoundTrip(t *testing.T) {
	sv := sampleSV()
	data := sv.Encode()
	got, err := DecodeStateVector(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StateEqual(sv) || !sv.StateEqual(got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, sv)
	}
	if len(got.Trace) != 2 || got.Trace[1].Disasm != "HALT" {
		t.Fatalf("trace = %+v", got.Trace)
	}
}

func TestStateVectorRoundTripEmpty(t *testing.T) {
	sv := &StateVector{}
	got, err := DecodeStateVector(sv.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chains) != 0 || len(got.Memory) != 0 || len(got.Env) != 0 || len(got.Trace) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeStateVectorErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("GSV1"),                   // truncated
		[]byte("GSV1\xff\xff\xff\xff"),   // absurd chain count
		append(sampleSV().Encode(), 0x0), // trailing garbage
	}
	for i, data := range cases {
		if _, err := DecodeStateVector(data); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestStateVectorComparisons(t *testing.T) {
	ref := sampleSV()

	same := sampleSV()
	if !ref.StateEqual(same) || !ref.OutputsEqual(same) {
		t.Fatal("identical vectors must compare equal")
	}

	chainDiff := sampleSV()
	chainDiff.Chains[0].Data = []byte{0xAB, 0x04}
	if ref.StateEqual(chainDiff) {
		t.Fatal("chain difference not detected")
	}
	if !ref.OutputsEqual(chainDiff) {
		t.Fatal("chain difference must not affect outputs")
	}

	memDiff := sampleSV()
	memDiff.Memory[1].Value = 99
	if ref.OutputsEqual(memDiff) || ref.StateEqual(memDiff) {
		t.Fatal("memory difference not detected")
	}

	envDiff := sampleSV()
	envDiff.Env[0][1] = 42
	if ref.OutputsEqual(envDiff) {
		t.Fatal("env difference not detected")
	}

	envLen := sampleSV()
	envLen.Env = envLen.Env[:1]
	if ref.OutputsEqual(envLen) {
		t.Fatal("env length difference not detected")
	}
}

func TestStateVectorDiffSummary(t *testing.T) {
	ref := sampleSV()
	if got := ref.DiffSummary(sampleSV()); got != "identical" {
		t.Fatalf("summary = %q", got)
	}
	other := sampleSV()
	other.Chains[0].Data = []byte{0xAA, 0x05}
	other.Memory[0].Value = 1
	other.Env[1] = []uint32{9}
	got := ref.DiffSummary(other)
	for _, want := range []string{"internal.core", "memory: 1", "env history: 1"} {
		if !contains(got, want) {
			t.Errorf("summary %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: random vectors survive the encode/decode round trip.
func TestStateVectorRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		sv := &StateVector{}
		for i := 0; i < rng.Intn(4); i++ {
			n := rng.Intn(100) + 1
			data := make([]byte, (n+7)/8)
			rng.Read(data)
			sv.Chains = append(sv.Chains, ChainState{
				Name: randName(rng), Bits: n, Data: data,
			})
		}
		for i := 0; i < rng.Intn(5); i++ {
			sv.Memory = append(sv.Memory, MemWord{Addr: rng.Uint32(), Value: rng.Uint32()})
		}
		for i := 0; i < rng.Intn(4); i++ {
			iter := make([]uint32, rng.Intn(3))
			for j := range iter {
				iter[j] = rng.Uint32()
			}
			sv.Env = append(sv.Env, iter)
		}
		got, err := DecodeStateVector(sv.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.StateEqual(sv) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func randName(rng *rand.Rand) string {
	letters := "abcdef.[]0123"
	n := rng.Intn(10) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// hostileEnvBlobs are state vectors whose env section claims far more data
// than the blob holds: a 1<<24-word first iteration, and 1<<24 iterations.
// Both are 32 bytes long.
func hostileEnvBlobs() map[string][]byte {
	blob := func(words ...uint32) []byte {
		b := []byte(svMagic)
		b = binary.LittleEndian.AppendUint32(b, 0) // chains
		b = binary.LittleEndian.AppendUint32(b, 0) // memory words
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	return map[string][]byte{
		"huge-iteration": blob(4, svMaxList, 1, 2, 3),
		"huge-count":     blob(svMaxList, 1, 7, 0, 0),
	}
}

// TestDecodeStateVectorHostileEnvBounded pins that decoding never sizes an
// allocation from a claimed env length: rows come from the database, and a
// few corrupt bytes must not cost tens of MiB before the decode fails.
func TestDecodeStateVectorHostileEnvBounded(t *testing.T) {
	for name, data := range hostileEnvBlobs() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeStateVector(data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile blob decoded without error")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("decode allocated %d bytes for a %d-byte blob", grew, len(data))
			}
		})
	}
}

// TestStateSectionsZeroAlloc pins that classification's walk over a valid
// row allocates nothing, on the largest row a real campaign logs.
func TestStateSectionsZeroAlloc(t *testing.T) {
	row := controlReferenceRow(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := StateSections(row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StateSections allocated %.1f times per row", allocs)
	}
}
