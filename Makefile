# Mirrors the CI jobs (.github/workflows/ci.yml) so tier-1 is one
# command locally: `make` runs build + lint + test.

GO ?= go

.PHONY: all build test race bench bench-smoke figures-smoke serve server-smoke lint fmt

all: build lint test

build:
	$(GO) build ./...

# The second line runs the side-placement, exact-repeat and panic-
# containment tests (a panic in every kind of fan-out) on one processor and
# on two, so the sequential path stays exercised on a multi-processor host;
# the third the paced-request tests (morsel claims at simulated time) the
# same way; the CI race job runs both under -race; the
# fourth that job's zero-copy, native-aggregate and lowering equivalence
# suites with the alias-debug assertions armed; the fifth fuzzes the
# native aggregate against the interpreted one, and the sixth every
# lowering of every plan against the row reference, each for 15 s on top
# of its committed corpus; the last loads TPC-H at both scales and TPC-C
# three times each and prints the MB/s of pages written (hold it against
# bench's host.memcpy_gbps).
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,2 -run 'SidesOverlap|Golden|RunRepeats|Fork|Panic|GivingUp' ./internal/par ./internal/engine ./internal/oltp ./internal/staged ./internal/core
	$(GO) test -count=1 -cpu 1,2 -run 'AtPace|Pace|Morsel' ./internal/trace ./internal/engine ./internal/sim
	ENGINE_ALIAS_DEBUG=1 $(GO) test -count=1 -run 'ZeroCopy|Borrow|AliasDebug|NativeGolden|JoinMode|PartitionedBuild|HashAggNativeEqualsInterpreted|Lowering' ./internal/engine/ ./internal/workload/ ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzHashAggNative -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzLowerings -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -bench 'BuildTPC' -benchtime 3x ./internal/workload

race:
	$(GO) test -race -short ./...

# Every Go benchmark in the tree, one iteration each: the TPC-H and
# TPC-C loads and native Q13 by worker count. The paper's measured
# quantities and every gain claim live in the repository benchmark,
# bench/ (see bench/README.md); the exact simulated claims are tier-1
# test assertions.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Mirrors CI's bench-smoke job: the benchmarks above once each, then
# bench/ over all four workloads with a 2 s window — every result checked
# against its reference, exit 1 on a failed check. Results land in
# bench/out/.
bench-smoke: bench
	$(GO) run ./bench -window 2s

# Mirrors CI's figures step: the paper's Figure 3 validation, Figure 5's
# breakdown and the staged-execution experiment at test scale, every cell
# through the one simulation lifecycle (core.Runner.simulate). Figure 2 is
# left out: its 128-client point does not fit in memory at test scale.
figures-smoke:
	$(GO) run ./cmd/figures -exp fig3 -scale test
	$(GO) run ./cmd/figures -exp fig5 -scale test
	$(GO) run ./cmd/figures -exp staged -scale test

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
