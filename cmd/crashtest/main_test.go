package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary double as the crashtest child: when the
// harness re-execs os.Executable() with the child env set, maybeRunChild
// runs the campaign and exits before any test executes.
func TestMain(m *testing.M) {
	if maybeRunChild() {
		return
	}
	os.Exit(m.Run())
}

// TestCrashRecoverySmoke runs a handful of full SIGKILL-recover-resume-verify
// cycles in-process. The dedicated `make crashsmoke` / a manual
// `go run ./cmd/crashtest` run many more iterations; this keeps the core
// guarantee — acknowledged experiments survive SIGKILL and resume matches a
// no-crash run — inside the default test suite.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness forks processes; skipped in -short")
	}
	opt := options{
		Iterations:      3,
		Seed:            41,
		Experiments:     60,
		Chaos:           "err=0.03,panic=0.01,seed=7",
		CheckpointBytes: 16 << 10,
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	horizon, err := killHorizon(exe, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opt.Iterations; i++ {
		res, err := runIteration(exe, opt, i, horizon)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		t.Logf("iter %d: kill=%v acked=%d recovered=%d %s", i, res.killDelay, res.acked, res.recovered, res.outcome)
	}
}

// TestSimCrashRecoverySmoke runs the in-process vfs.Faulty variant of the
// harness: a seeded crash point plus transient, torn and lying storage
// faults, then power-cut, recover, resume, bit-identical verify. No fork per
// iteration, so far more seeds fit in the suite; `make storagesmoke` runs the
// full sweep.
func TestSimCrashRecoverySmoke(t *testing.T) {
	opt := options{
		Iterations:      25,
		Seed:            1,
		Experiments:     16,
		Chaos:           "err=0.03,panic=0.01,seed=7",
		CheckpointBytes: 16 << 10,
		Sim:             true,
		SimFaults:       "write=0.01,sync=0.01,torn=0.01,lie=0.005,dirsync=1",
	}
	horizon, err := crashOpHorizon(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opt.Iterations; i++ {
		res, err := runSimIteration(opt, i, horizon)
		if err != nil {
			t.Fatalf("sim iteration %d (seed %d): %v", i, opt.Seed+int64(i), err)
		}
		t.Logf("sim %d: acked=%d recovered=%d resumed=%d %s", i, res.acked, res.recovered, res.resumed, res.outcome)
	}
}
