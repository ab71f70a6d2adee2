package target

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"goofi/internal/obsv"
	"goofi/internal/scan"
)

// FlakyConfig configures the Flaky chaos wrapper: per-operation probabilities
// of injecting a transient error, a panic or a hang into the scan/read/write
// surface of a target. All decisions are drawn from a seeded PRNG, so a
// chaos campaign is as reproducible as a clean one.
type FlakyConfig struct {
	// ErrorRate is the per-operation probability of returning a transient
	// error instead of performing the operation.
	ErrorRate float64
	// PanicRate is the per-operation probability of panicking mid-operation
	// (the campaign runner's recover converts this into an experiment
	// failure).
	PanicRate float64
	// HangRate is the per-operation probability of blocking — the wedge the
	// campaign watchdog must detect. Pair a nonzero HangRate with
	// Campaign.ExperimentTimeout.
	HangRate float64
	// Seed makes the injected fault stream reproducible; it is mixed with the
	// campaign seed and experiment/attempt indices by SeedExperiment.
	Seed int64
	// HangDuration bounds how long an injected hang blocks before returning a
	// transient error. 0 blocks forever — only safe under a watchdog.
	HangDuration time.Duration
}

// Validate checks the rates are probabilities.
func (c FlakyConfig) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"err", c.ErrorRate}, {"panic", c.PanicRate}, {"hang", c.HangRate}} {
		if r.rate < 0 || r.rate > 1 {
			return fmt.Errorf("target: flaky %s rate %g outside [0,1]", r.name, r.rate)
		}
	}
	if c.HangDuration < 0 {
		return fmt.Errorf("target: flaky hang duration %v negative", c.HangDuration)
	}
	return nil
}

// ParseFlakyConfig parses a chaos spec of the form
// "err=0.02,panic=0.005,hang=0.01,seed=3,hangdur=5s". Unknown keys are
// rejected; hangdur defaults to 30s so a CLI self-test campaign can never
// wedge forever even without a watchdog.
func ParseFlakyConfig(spec string) (FlakyConfig, error) {
	cfg := FlakyConfig{HangDuration: 30 * time.Second}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return FlakyConfig{}, fmt.Errorf("target: flaky spec %q: want key=value", kv)
		}
		switch key {
		case "err", "panic", "hang":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return FlakyConfig{}, fmt.Errorf("target: flaky %s: %w", key, err)
			}
			switch key {
			case "err":
				cfg.ErrorRate = rate
			case "panic":
				cfg.PanicRate = rate
			case "hang":
				cfg.HangRate = rate
			}
		case "seed":
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return FlakyConfig{}, fmt.Errorf("target: flaky seed: %w", err)
			}
			cfg.Seed = seed
		case "hangdur":
			d, err := time.ParseDuration(val)
			if err != nil {
				return FlakyConfig{}, fmt.Errorf("target: flaky hangdur: %w", err)
			}
			cfg.HangDuration = d
		default:
			return FlakyConfig{}, fmt.Errorf("target: flaky spec: unknown key %q", key)
		}
	}
	return cfg, cfg.Validate()
}

// FlakyCounts tallies the faults a Flaky wrapper injected.
type FlakyCounts struct {
	Errors, Panics, Hangs int64
}

// Flaky wraps another target's Operations and injects seeded transient faults
// — errors, panics and hangs — into the scan/read/write surface: fault
// injection for the fault injector. It exists to exercise (and self-test) the
// campaign engine's retry, quarantine and watchdog machinery against the
// misbehaviour real test cards exhibit (§2: hung experiments, glitching
// scan-chain communication).
//
// Flaky implements ExperimentSeeder: the campaign runner reseeds it before
// every experiment attempt, so the injected fault stream is a pure function
// of (campaign seed, experiment index, attempt index) — independent of worker
// scheduling — and chaos campaigns stay bit-reproducible.
//
// Checkpoint save, restore and import are chaos-injected too, so forking
// and scifi-checkpoint campaigns are chaos-testable. Every other operation,
// WaitForTrigger included, is promoted from the inner target unchanged.
type Flaky struct {
	Operations
	cfg FlakyConfig
	rng *rand.Rand
	tc  obsv.TraceContext

	errors atomic.Int64
	panics atomic.Int64
	hangs  atomic.Int64
}

// NewFlaky wraps inner with the given chaos configuration.
func NewFlaky(inner Operations, cfg FlakyConfig) *Flaky {
	return &Flaky{
		Operations: inner,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(mixSeed(cfg.Seed, 0, 0, 0))),
	}
}

// FlakyFactory wraps every target the inner factory mints.
func FlakyFactory(inner Factory, cfg FlakyConfig) Factory {
	return FactoryFunc(func() (Operations, error) {
		ops, err := inner.New()
		if err != nil {
			return nil, err
		}
		return NewFlaky(ops, cfg), nil
	})
}

// mixSeed folds the seeds and indices through splitmix64 so nearby inputs
// give unrelated PRNG streams.
func mixSeed(cfgSeed, campaignSeed int64, experiment, attempt int) int64 {
	z := uint64(cfgSeed)*0x9e3779b97f4a7c15 ^ uint64(campaignSeed)
	z ^= uint64(int64(experiment))<<32 ^ uint64(int64(attempt))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SeedExperiment reseeds the fault stream for one experiment attempt, and
// the inner target's (ExperimentSeeder).
func (f *Flaky) SeedExperiment(campaignSeed int64, experiment, attempt int) {
	f.rng = rand.New(rand.NewSource(mixSeed(f.cfg.Seed, campaignSeed, experiment, attempt)))
	f.Operations.SeedExperiment(campaignSeed, experiment, attempt)
}

// SetTraceContext stores the attempt's provenance context so injected chaos
// faults are attributed to the attempt they hit (TraceContextSetter). Set by
// the runner before each attempt, like SeedExperiment, and stamped without
// an experiment once the attempt has returned.
func (f *Flaky) SetTraceContext(tc obsv.TraceContext) {
	f.tc = tc
	if s, ok := f.Operations.(TraceContextSetter); ok {
		s.SetTraceContext(tc)
	}
}

// ObsvTraceContext returns the attempt context (TraceContextCarrier).
func (f *Flaky) ObsvTraceContext() obsv.TraceContext { return f.tc }

// Counts reports how many faults have been injected so far.
func (f *Flaky) Counts() FlakyCounts {
	return FlakyCounts{Errors: f.errors.Load(), Panics: f.panics.Load(), Hangs: f.hangs.Load()}
}

// chaos draws the fault decision for one operation call: panic, hang (block,
// then fail transiently) or transient error, in that precedence order.
func (f *Flaky) chaos(op string) error {
	if f.cfg.PanicRate > 0 && f.rng.Float64() < f.cfg.PanicRate {
		f.panics.Add(1)
		if f.tc.Enabled() {
			f.tc.Emit(obsv.EvChaosPanic, "op="+op)
		}
		panic(fmt.Sprintf("flaky: injected panic in %s", op))
	}
	if f.cfg.HangRate > 0 && f.rng.Float64() < f.cfg.HangRate {
		f.hangs.Add(1)
		// Emitted before the block so the event lands inside the attempt's
		// window even when the watchdog abandons the hung goroutine.
		if f.tc.Enabled() {
			f.tc.Emit(obsv.EvChaosHang, fmt.Sprintf("op=%s hangdur=%v", op, f.cfg.HangDuration))
		}
		if f.cfg.HangDuration <= 0 {
			select {} // block forever; only the campaign watchdog can move on
		}
		time.Sleep(f.cfg.HangDuration)
		return Transient(fmt.Errorf("flaky: %s hung for %v", op, f.cfg.HangDuration))
	}
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		f.errors.Add(1)
		if f.tc.Enabled() {
			f.tc.Emit(obsv.EvChaosError, "op="+op)
		}
		return Transient(fmt.Errorf("flaky: injected %s error", op))
	}
	return nil
}

// ReadScanChain injects chaos into the scan-read path.
func (f *Flaky) ReadScanChain(chain string) (scan.Bits, error) {
	if err := f.chaos("ReadScanChain"); err != nil {
		return scan.Bits{}, err
	}
	return f.Operations.ReadScanChain(chain)
}

// WriteScanChain injects chaos into the scan-write path.
func (f *Flaky) WriteScanChain(chain string, bits scan.Bits) error {
	if err := f.chaos("WriteScanChain"); err != nil {
		return err
	}
	return f.Operations.WriteScanChain(chain, bits)
}

// ReadMemory injects chaos into the host-port read path.
func (f *Flaky) ReadMemory(addr uint32, n int) ([]uint32, error) {
	if err := f.chaos("ReadMemory"); err != nil {
		return nil, err
	}
	return f.Operations.ReadMemory(addr, n)
}

// WriteMemory injects chaos into the host-port write path.
func (f *Flaky) WriteMemory(addr uint32, vals []uint32) error {
	if err := f.chaos("WriteMemory"); err != nil {
		return err
	}
	return f.Operations.WriteMemory(addr, vals)
}

// SaveCheckpointAt injects chaos into the checkpoint-save path.
func (f *Flaky) SaveCheckpointAt(id uint64) error {
	if err := f.chaos("SaveCheckpointAt"); err != nil {
		return err
	}
	return f.Operations.SaveCheckpointAt(id)
}

// RestoreCheckpointAt injects chaos into the checkpoint-restore path.
func (f *Flaky) RestoreCheckpointAt(id uint64) (bool, error) {
	if err := f.chaos("RestoreCheckpointAt"); err != nil {
		return false, err
	}
	return f.Operations.RestoreCheckpointAt(id)
}

// ImportCheckpoint injects chaos into the pool-import path. Dropping and
// exporting checkpoints are promoted without chaos: they only touch host
// memory, not the target link.
func (f *Flaky) ImportCheckpoint(id uint64, snap any) error {
	if err := f.chaos("ImportCheckpoint"); err != nil {
		return err
	}
	return f.Operations.ImportCheckpoint(id, snap)
}
