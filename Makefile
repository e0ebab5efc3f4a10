# CORDOBA build/test entry points. `make ci` is the full PR gate: the
# tier-1 verify (build + all tests), go vet, a race-detector pass over
# the concurrent paths (the cordobad service layer, the parallel/streaming
# DSE engine, and the envelope accumulator it locks around), and a build
# and vet of the cordobench harness.

GO ?= go

.PHONY: build test vet fmt-check race cordobench-check ci bench bench-server bench-check bench-cluster bench-surrogate bench-partition bench-queue bench-baseline fuzz-smoke run-daemon

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (gofmt -l prints offenders; grep .
# turns any output into a non-zero exit).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race -short . ./internal/server/... ./internal/job/... ./internal/tenant/... ./internal/cluster/... ./internal/dse/... ./internal/pareto/... ./internal/grid/... ./internal/sched/... ./internal/carbon/... ./internal/accel/... ./client/... ./api/...

# cordobench is a nested module, so `go build ./...` skips it; building it
# is the compile-time check on the facade signatures it calls.
cordobench-check:
	cd cordobench && $(GO) build -o /dev/null . && $(GO) vet .

ci: build vet fmt-check test race cordobench-check

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The pool-sizing and cache benchmarks behind cordobad's defaults.
bench-server:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluateParallel|BenchmarkServerDSE' -benchmem .

# Guard the streaming-engine and window-search speedups, the job's
# checkpoint encode and the batched replay's full and delay-only passes: fail on a >2x ns/op regression — or a >1.3x B/op or
# allocs/op regression — against the checked-in baseline. Every gate reads
# the median of five runs: one run in a fresh process times and counts
# one-time set-up as part of the work. Regenerate after an intentional perf
# change with `make bench-baseline` and review the diff (-update merges
# per-package runs into the shared baseline).
bench-check:
	$(GO) test -run '^$$' -bench BenchmarkStreamingDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json
	$(GO) test -run '^$$' -bench BenchmarkScheduleWindow -benchtime 1x -count 5 -benchmem ./internal/sched | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json
	$(GO) test -run '^$$' -bench BenchmarkStreamCheckpointEncode -count 5 -benchmem ./internal/dse | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json
	$(GO) test -run '^$$' -bench BenchmarkReplayCost -benchtime 1000x -count 5 -benchmem ./internal/accel | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json

# Guard the surrogate search's reason to exist: on the 105k-point reference
# grid it must stay at least 3x faster than exhaustive streaming in the same
# run (the faster_than gate on its baseline entry; 3.6-4.5x measured on a
# 2-vCPU host) besides holding its own time and memory baseline. Five runs,
# gated on their median: the exhaustive side alone swings ~30% run to run,
# enough to flip a one-sample ratio. The quality floor is pinned separately
# by internal/dse's golden tests.
bench-surrogate:
	$(GO) test -run '^$$' -bench BenchmarkSurrogateDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json

# Guard the distributed-DSE paths: the single-node walk of the 2^20-point
# acceptance grid, the same grid fanned out across three in-process workers
# (the delta over `single` is the coordinator's whole fan-out overhead —
# dispatch, polling, envelope decode, merge), and the isolated merge path,
# each gated on the median of five runs because one sample of them flaps.
bench-cluster:
	$(GO) test -run '^$$' -bench BenchmarkClusterDSE -benchtime 1x -count 5 -benchmem ./internal/cluster | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json
	$(GO) test -run '^$$' -bench BenchmarkClusterMerge -benchtime 100x -count 5 -benchmem ./internal/cluster | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json

# Guard the partition axis: widening a grid with the chiplet knobs (12x the
# cells of its flat projection) must keep pricing through the shared
# per-(shape, embodied-class) path, so time, B/op, and allocs/op on both the
# flat and partitioned runs are gated against the checked-in baseline, on
# the median of five runs.
bench-partition:
	$(GO) test -run '^$$' -bench BenchmarkPartitionDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json

# Guard the fair-share scheduler's hot path: one weighted pick + requeue
# over a populated 32-tenant queue must stay fast and allocation-light —
# it runs between every job the fleet serves.
bench-queue:
	$(GO) test -run '^$$' -bench BenchmarkFairShareDequeue -benchtime 100x -benchmem ./internal/job | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json

bench-baseline:
	$(GO) test -run '^$$' -bench BenchmarkStreamingDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkSurrogateDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkPartitionDSE -benchtime 1x -count 5 -benchmem . | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkScheduleWindow -benchtime 1x -count 5 -benchmem ./internal/sched | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkStreamCheckpointEncode -count 5 -benchmem ./internal/dse | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkReplayCost -benchtime 1000x -count 5 -benchmem ./internal/accel | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkClusterDSE -benchtime 1x -count 5 -benchmem ./internal/cluster | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkClusterMerge -benchtime 100x -count 5 -benchmem ./internal/cluster | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update
	$(GO) test -run '^$$' -bench BenchmarkFairShareDequeue -benchtime 100x -benchmem ./internal/job | $(GO) run ./cmd/benchcheck -baseline testdata/bench_baseline.json -update

# Ten seconds of coverage-guided fuzzing per target (one -fuzz per
# invocation is a `go test` restriction). Seed corpora live under each
# package's testdata/fuzz/ and also run as regular tests in `make test`.
# FuzzSurrogateCheckpoint's inputs are multi-kilobyte checkpoints, whose
# default 60 s minimization would eat the whole run, so it is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParetoEnvelope -fuzztime 10s ./internal/pareto
	$(GO) test -run '^$$' -fuzz FuzzDSERequest -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzSurrogateRequest -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzAccountingRequest -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzPartitionSpec -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzJobListQuery -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzTraceIntegrate -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz FuzzAccountingModel -fuzztime 10s ./internal/carbon
	$(GO) test -run '^$$' -fuzz FuzzSurrogateCheckpoint -fuzztime 10s -fuzzminimizetime 200x ./internal/dse

run-daemon:
	$(GO) run ./cmd/cordobad -addr :8080
