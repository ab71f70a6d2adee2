package target

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTransientTaxonomy(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must stay nil")
	}
	base := errors.New("scan glitch")
	te := Transient(base)
	if !IsTransient(te) {
		t.Fatal("wrapped error must classify as transient")
	}
	if !errors.Is(te, base) {
		t.Fatal("wrapping must preserve the cause for errors.Is")
	}
	if te.Error() != base.Error() {
		t.Fatalf("message changed: %q", te.Error())
	}
	// Idempotent: wrapping a transient error again returns it unchanged.
	if Transient(te) != te {
		t.Fatal("double wrap must be a no-op")
	}
	// Errors that merely wrap a transient error stay transient.
	outer := fmt.Errorf("experiment 4: %w", te)
	if !IsTransient(outer) {
		t.Fatal("fmt.Errorf chain must stay transient")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Fatal("plain errors and nil are not transient")
	}
}

func TestParseFlakyConfig(t *testing.T) {
	cfg, err := ParseFlakyConfig("err=0.02, panic=0.005,hang=0.01,seed=3,hangdur=5s")
	if err != nil {
		t.Fatal(err)
	}
	want := FlakyConfig{ErrorRate: 0.02, PanicRate: 0.005, HangRate: 0.01, Seed: 3, HangDuration: 5 * time.Second}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	// hangdur defaults to 30s so a spec without it can never wedge forever.
	cfg, err = ParseFlakyConfig("err=0.5")
	if err != nil || cfg.HangDuration != 30*time.Second {
		t.Fatalf("default hangdur: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"nope", "bogus=1", "err=x", "err=1.5", "hang=-0.1", "seed=abc", "hangdur=xyz"} {
		if _, err := ParseFlakyConfig(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

// chaosStub overrides just enough of the operation surface for chaos draws
// to have a success path to fall through to.
type chaosStub struct{ BaseTarget }

func (chaosStub) ReadMemory(addr uint32, n int) ([]uint32, error) { return make([]uint32, n), nil }

// TestFlakySeededFaultStream pins the determinism contract: after
// SeedExperiment, the injected fault stream is a pure function of the seeds
// and indices, and distinct attempts draw distinct streams.
func TestFlakySeededFaultStream(t *testing.T) {
	draw := func(campaignSeed int64, exp, attempt int) []bool {
		f := NewFlaky(chaosStub{}, FlakyConfig{ErrorRate: 0.5, Seed: 7})
		f.SeedExperiment(campaignSeed, exp, attempt)
		out := make([]bool, 64)
		for i := range out {
			_, err := f.ReadMemory(0, 1)
			out[i] = err != nil
			if err != nil && !IsTransient(err) {
				t.Fatal("injected errors must be transient")
			}
		}
		return out
	}
	eq := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a, b := draw(1, 5, 0), draw(1, 5, 0)
	if !eq(a, b) {
		t.Fatal("same (seed, experiment, attempt) must replay the same fault stream")
	}
	if eq(a, draw(1, 5, 1)) {
		t.Fatal("a retry attempt must draw a fresh fault stream")
	}
	if eq(a, draw(2, 5, 0)) {
		t.Fatal("a different campaign seed must draw a fresh fault stream")
	}
}

func TestFlakyPanicAndCounts(t *testing.T) {
	f := NewFlaky(chaosStub{}, FlakyConfig{PanicRate: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PanicRate=1 must panic")
			}
		}()
		f.ReadMemory(0, 1)
	}()
	if c := f.Counts(); c.Panics != 1 || c.Errors != 0 || c.Hangs != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestFlakyBoundedHang(t *testing.T) {
	f := NewFlaky(chaosStub{}, FlakyConfig{HangRate: 1, HangDuration: time.Millisecond})
	start := time.Now()
	_, err := f.ReadMemory(0, 1)
	if !IsTransient(err) {
		t.Fatalf("bounded hang must resolve to a transient error, got %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("hang returned before its duration elapsed")
	}
	if c := f.Counts(); c.Hangs != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// seedProbe records the last SeedExperiment call it saw.
type seedProbe struct {
	BaseTarget
	seeds [][3]int64
}

func (p *seedProbe) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	p.seeds = append(p.seeds, [3]int64{campaignSeed, int64(experiment), int64(attempt)})
}

// TestFlakySeedsInner: reseeding a Flaky layer reseeds the target it wraps
// too, so a stack of seeded layers replays as one.
func TestFlakySeedsInner(t *testing.T) {
	p := &seedProbe{}
	NewFlaky(NewFlaky(p, FlakyConfig{}), FlakyConfig{}).SeedExperiment(4, 5, 6)
	if len(p.seeds) != 1 || p.seeds[0] != [3]int64{4, 5, 6} {
		t.Fatalf("inner seeds = %v", p.seeds)
	}
}
