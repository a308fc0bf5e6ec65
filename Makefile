# Mirrors the CI jobs (.github/workflows/ci.yml) so tier-1 is one
# command locally: `make` runs build + lint + test.

GO ?= go

.PHONY: all build test race bench bench-share bench-vec bench-oltp bench-oltp-mt bench-native bench-json serve server-smoke lint fmt

all: build lint test

build:
	$(GO) build ./...

# The second line runs the side-placement and exact-repeat tests on one
# processor and on two, so the sequential path stays exercised on a
# multi-processor host; the third the paced-request tests (morsel claims at
# simulated time) the same way, as the CI race job does under -race; the
# fourth that job's zero-copy, native-aggregate and lowering equivalence
# suites with the alias-debug assertions armed; the fifth fuzzes the
# native aggregate against the interpreted one, and the sixth every
# lowering of every plan against the row reference, each for 15 s on top
# of its committed corpus; the last loads TPC-H at both scales and TPC-C
# three times each and prints the MB/s of pages written (hold it against
# bench's host.memcpy_gbps).
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,2 -run 'SidesOverlap|Golden|RunRepeats|Fork' ./internal/core
	$(GO) test -count=1 -cpu 1,2 -run 'AtPace|Pace|Morsel' ./internal/trace ./internal/engine ./internal/sim
	ENGINE_ALIAS_DEBUG=1 $(GO) test -count=1 -run 'ZeroCopy|Borrow|AliasDebug|NativeGolden|JoinMode|PartitionedBuild|HashAggNativeEqualsInterpreted|Lowering' ./internal/engine/ ./internal/workload/ ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzHashAggNative -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzLowerings -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -bench 'BuildTPC' -benchtime 3x ./internal/workload

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Shared vs unshared aggregate-throughput smoke (8 simulated clients).
bench-share:
	$(GO) test -run '^$$' -bench '^BenchmarkSharedScan$$' -benchtime=1x .

# Vectorized-executor smoke: gates Q6 scan throughput at >= 1.5x the
# row-at-a-time path on the simulated 4-core FC chip.
bench-vec:
	$(GO) test -run '^$$' -bench '^BenchmarkVectorized$$' -benchtime=1x .

# Staged-OLTP smoke: gates the STEPS-style cohort executor at >= 5x
# fewer simulated L1I misses than the monolithic path, with
# byte-identical transaction effects.
bench-oltp:
	$(GO) test -run '^$$' -bench '^BenchmarkStagedOLTP$$' -benchtime=1x .

# Partitioned staged-OLTP smoke: the cohort scheduler split by home
# warehouse across {1, 2, 4} workers on a 4-warehouse mix — parts=2 must
# beat parts=1 on simulated cycles and parts=4 must reach >= 2x, with
# every digest byte-identical to the monolithic reference.
bench-oltp-mt:
	$(GO) test -run '^$$' -bench '^BenchmarkStagedOLTPParallel$$' -benchtime=1x .

# Native fast-path gate: at 1 worker Q6 with compiled predicates +
# selection vectors must beat the interpreted path >= 1.5x, the
# zero-copy (page-aliasing) path >= 1.9x over interpreted and >= 1.25x
# over copying; Q13's compiled join kernels over borrowed scans must
# beat interpreted >= 1.3x; the partitioned and prefetch join modes
# must each beat the chained native path >= 1.15x (best-of-3, digests
# byte-identical across modes) and simulated Q13 must show a strictly
# lower partitioned D-stall fraction; 4 workers must scale >= 2.5x over 1 when the
# host actually has 4 CPUs (the scaling assertion is skipped on smaller
# runners — a 1-CPU container cannot express parallel speedup). The gate
# appends a benchstat-style copy-vs-borrow summary to bench-native.txt
# (CI archives it as an artifact).
bench-native:
	BENCH_NATIVE=1 BENCH_NATIVE_OUT=$(CURDIR)/bench-native.txt \
		$(GO) test -run '^TestNativeSpeedupGate$$' -count=1 -v ./internal/core/

# Machine-readable perf trajectory: the native fast-path sweep (compiled
# vs interpreted, copy vs zero-copy, worker scaling, median+IQR and
# effective GB/s per point), rows/sec + simulated vectorized/row
# speedups for scan, aggregate, join, plus the staged-OLTP comparison and
# the partitioned-OLTP scaling sweep, plus the Q13 join-mode points
# (schema v7), into BENCH_pr10.json (archived as a CI artifact so later
# PRs can diff executor performance).
bench-json:
	$(GO) run ./cmd/benchjson -pr pr10-joinmodes -out BENCH_pr10.json

# Run the execution server on :8080 (POST /v1/query, POST /v1/txn,
# GET /v1/jobs/{id}, GET /healthz, GET /metrics).
serve:
	$(GO) run ./cmd/dbserver

# End-to-end server smoke: build dbserver, serve one DSS query and one
# OLTP batch over HTTP, check /metrics counters are live, SIGTERM
# mid-load, require a clean graceful-drain exit.
server-smoke:
	./scripts/server_smoke.sh

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

fmt:
	gofmt -w .
