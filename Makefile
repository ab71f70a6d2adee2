# CI entry points for the GOOFI reproduction. `make ci` is what every PR
# must keep green: vet, build, the full test suite, a run of every example,
# the benchmark module's own tests, the race-checked core, scan and obsv
# packages (the concurrent campaign runner, the packed scan datapath and the
# metrics broadcaster), and a short benchmark smoke run that also emits its
# machine-readable JSON summary.

GO ?= go

# Repetitions for `make bench`; 6+ samples give benchstat enough data for
# a significance test.
BENCHCOUNT ?= 6

# Benchmark summary comparison inputs for `make benchdiff`.
OLD ?= BENCH_old.json
NEW ?= BENCH_campaign.json

.PHONY: all build vet fmt test examples race perfbench bench benchdiff benchsmoke cover fuzzsmoke crashsmoke storagesmoke servesmoke ci

all: ci

build:
	$(GO) build ./...

# The benchmark module is vetted too: it wraps target.Operations, so an
# interface change is type-checked against it here.
vet:
	$(GO) vet ./...
	cd perfbench && GOFLAGS=-mod=mod GOWORK=off GOPROXY=off $(GO) vet .

# gofmt cleanliness gate: `gofmt -l` prints the names of misformatted files
# and exits 0 regardless, so fail explicitly when the list is non-empty.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Run every program under examples/ end to end, so the library surface they
# show keeps working, not only compiling; any non-zero exit fails the target.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# The worker-pool campaign engine (and the checkpoint-forking paths) live
# in internal/core, the packed bitset + TAP fast path in internal/scan,
# the chaos/retry taxonomy and the checkpoint stores in internal/target,
# the delta snapshot scheme in internal/thor, the restorable plant models
# in internal/envsim, the concurrent recorder/broadcaster in
# internal/obsv, the WAL group-commit machinery in internal/sqldb, and the
# fault-injecting filesystem (shared op counter + durability maps) in
# internal/vfs, the multi-tenant campaign service (queue scheduler, the
# campaign store's single Save, drain) in internal/service, and the store
# layer that drains provenance journals while runners emit into them in
# internal/dbase; run all ten under the race detector on every change.
race:
	$(GO) test -race ./internal/core/... ./internal/scan/... ./internal/target/... ./internal/thor/... ./internal/envsim/... ./internal/obsv/... ./internal/sqldb/... ./internal/vfs/... ./internal/service/... ./internal/dbase/...

# The repository benchmark's own tests (workload smoke runs, trace
# arithmetic, BENCHMARK.json agreement). perfbench/ is a separate Go module,
# so `go test ./...` above does not reach it; it builds offline against the
# checkout through its replace directive.
perfbench:
	cd perfbench && GOFLAGS=-mod=mod GOWORK=off GOPROXY=off $(GO) test .

# Benchstat-friendly benchmark run: every benchmark, with allocation
# stats, repeated BENCHCOUNT times. The raw text lands in
# BENCH_campaign.txt (benchstat-compatible) and the averaged
# machine-readable summary in BENCH_campaign.json. Compare two summaries
# with `make benchdiff OLD=a.json NEW=b.json` (non-zero exit on any >10%
# regression). go test writes to a file rather than into a pipe so a
# benchmark failure fails the target.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCHCOUNT) . > BENCH_campaign.txt
	cat BENCH_campaign.txt
	$(GO) run ./cmd/goofi-bench -in BENCH_campaign.txt -out BENCH_campaign.json

benchdiff:
	$(GO) run ./cmd/goofi-bench -diff $(OLD) $(NEW)

# Short benchmark smoke: the parallel campaign sweep, the forked-campaign
# pair and the injection micro-benchmark, just enough time per benchmark
# to catch regressions in wiring. Time-based rather than a fixed
# iteration count so one-off setup (minting worker targets, the forked
# golden run) amortises roughly as it does in the full baseline run.
# Emits BENCH_smoke.json so CI artifacts carry machine-readable numbers.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSCIFICampaignParallel|BenchmarkCampaignForked|BenchmarkInjectionScanVsMemory' -benchtime 50ms -benchmem . > BENCH_smoke.txt
	cat BENCH_smoke.txt
	$(GO) run ./cmd/goofi-bench -in BENCH_smoke.txt -out BENCH_smoke.json

# Coverage across every package, with the per-package summary and a total.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Duration of each short fuzz run in fuzzsmoke.
FUZZTIME ?= 5s

# Short coverage-guided fuzz of the hostile-input surfaces: the SQL
# lexer/parser, the SQL statement cache (differential against a fresh
# parse), the WAL record codec/replay, the checkpoint image load (whole
# image or an error), the packed scan-chain codec,
# the page-delta checkpoint round-trip, the Thor instruction decoder (a
# fault can turn any word into a fetched instruction), the Thor predecode
# table under ROM rewrites, I-cache flips and resets, the storage-chaos
# fault-schedule codec, the logged state-vector codec (rows read back
# from the database) and the section comparison that classifies those rows
# (differential against decoding). `go test -fuzz` takes one target per
# invocation, hence twelve runs.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSelect$$' -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzStatementCache$$' -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzImageLoad$$' -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzBitsPackUnpack$$' -fuzztime $(FUZZTIME) ./internal/scan
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDelta$$' -fuzztime $(FUZZTIME) ./internal/thor
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/thor
	$(GO) test -run '^$$' -fuzz '^FuzzStepDecode$$' -fuzztime $(FUZZTIME) ./internal/thor
	$(GO) test -run '^$$' -fuzz '^FuzzFaultyVFS$$' -fuzztime $(FUZZTIME) ./internal/vfs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStateVector$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzStateSections$$' -fuzztime $(FUZZTIME) ./internal/core

# SIGKILL crash-recovery smoke: a handful of live campaigns killed at
# seeded random points, recovered from the WAL, resumed to completion and
# verified row-for-row against a no-crash reference run. The full
# acceptance sweep is `go run ./cmd/crashtest -n 20`.
crashsmoke:
	$(GO) run ./cmd/crashtest -n 5 -experiments 80 -seed 7

# Simulated-crash storage sweep: 200 campaigns over the deterministic
# fault-injecting filesystem (vfs.Faulty), each power-cut at a seeded op
# with transient, torn and lying-fsync faults along the way, then
# recovered, resumed and verified row-for-row against a fault-free
# reference. No fork per iteration, so 200 seeds cost seconds where the
# SIGKILL harness above costs minutes.
storagesmoke:
	$(GO) run ./cmd/crashtest -sim -n 200 -experiments 16 -seed 1

# Campaign-service drain/restart smoke: ten cycles of a forked goofi
# serve daemon with two tenants submitted over HTTP, SIGTERMed at a
# seeded random point mid-campaign, inspected offline (every persisted
# row bit-identical to a no-crash reference), restarted on the same data
# directory, and polled until the resumed campaigns match the reference
# row for row. Shard counts (width multipliers) rotate across iterations so
# interruption and resume at several widths ride the same oracle; the
# SIGTERM window is sized from one measured undisturbed run per width pair.
servesmoke:
	$(GO) run ./cmd/crashtest -serve -n 10 -experiments 80 -seed 3

# After benchsmoke, gate the smoke numbers against the committed full-run
# baseline BENCH_campaign.json. Time only (-metrics ns): allocation
# metrics fold one-off setup into per-op numbers and so only compare
# between runs of similar length. The tolerance is deliberately generous
# (75%): the smoke run is short and lands on whatever machine CI uses,
# so only order-of-magnitude regressions — a forked campaign falling
# back to the plain path, a capture turning quadratic — should trip it.
ci: fmt vet build test examples race perfbench benchsmoke fuzzsmoke crashsmoke storagesmoke servesmoke
	$(GO) run ./cmd/goofi-bench -diff BENCH_campaign.json -tolerance 75 -metrics ns BENCH_smoke.json
