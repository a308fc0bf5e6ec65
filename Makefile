# The CI jobs (.github/workflows/ci.yml) run the test tiers below, so
# tier-1 is one command locally: `make` runs build + lint + test.

GO ?= go

.PHONY: all build test race bench bench-smoke figures-smoke serve server-smoke lint fmt

all: build lint test

build:
	$(GO) build ./...

# The test tiers. CI's test job runs `make test`, its race job `make
# race`: this file is their one definition.
#
# test: the whole suite; then, on one processor and on two (so the
# sequential path stays exercised on a multi-processor host), the
# side-placement, exact-repeat, parallel-join and panic-containment tests
# (a panic in every kind of fan-out) and the paced-request tests (morsel
# claims at simulated time); the zero-copy, native-aggregate and lowering
# equivalence suites with the alias-debug assertions armed; seven fuzz
# smokes, 15 s each on top of the committed corpus — the native aggregate
# against the interpreted one, wire request bodies through validation
# against the request bounds, arbitrary page bytes through the
# slotted-page readers, the parallel join against the serial one, every
# lowering of every plan against the row reference, the compiled
# predicate forms against the interpreted ones, and malformed buffer-pool
# images through Restore; last, TPC-H at both scales and TPC-C loaded
# three times each, with the MB/s of pages written (hold it against
# bench's host.memcpy_gbps).
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,2 -run 'SidesOverlap|Golden|RunRepeats|Fork|Panic|GivingUp|ParallelJoin|ParallelHashJoin|ParallelOps' ./internal/par ./internal/engine ./internal/oltp ./internal/staged ./internal/core
	$(GO) test -count=1 -cpu 1,2 -run 'AtPace|Pace|Morsel' ./internal/trace ./internal/engine ./internal/sim
	ENGINE_ALIAS_DEBUG=1 $(GO) test -count=1 -run 'ZeroCopy|Borrow|AliasDebug|NativeGolden|JoinMode|PartitionedBuild|HashAggNativeEqualsInterpreted|Lowering' ./internal/engine/ ./internal/workload/ ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzHashAggNative -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzRequestJSON -fuzztime 15s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSlottedPage -fuzztime 15s ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzParallelJoin -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzLowerings -fuzztime 15s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzCompilePreds -fuzztime 15s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzPoolImage -fuzztime 15s ./internal/storage
	$(GO) test -run '^$$' -bench 'BuildTPC' -benchtime 3x ./internal/workload

# race: the short suite under the race detector; then, under race, the
# alias-debug equivalence suites above; native rows on worker contexts
# and through the order-preserving exchange against the serial plan's —
# the aggregate folding the morsels its workers prepare, its group table
# sized as the serial plan's on a workspace the workers were carved
# from, a join build staged and linked on them chain for chain — with
# nothing left behind after a worker fails in either half, and a
# borrowed page's lease counted, on one, two and four processors (one
# runs the serial plan); event skipping against the cycle-by-cycle
# loop, the cache hierarchy against its reference, workspace reuse, trace-chunk recycling
# and exact repeats; a TPC-C fork against a fresh build, the coroutine
# trace pipe, the staged-OLTP goldens and concurrent callers on one image;
# the loader against row-at-a-time inserts, the appenders and the
# free-frame cursor; the side-placement and paced-request lines of `test`,
# on one processor and on two; and, three times over, the TPC-C driver
# that runs the transaction programs on client threads (TPCC.Run): eight
# concurrent clients waiting for one another's locks, Run against the
# monolithic reference, and a traced client.
race:
	$(GO) test -race -short ./...
	ENGINE_ALIAS_DEBUG=1 $(GO) test -race -count=1 -run 'ZeroCopy|Borrow|AliasDebug|NativeGolden|JoinMode|PartitionedBuild|HashAggNativeEqualsInterpreted|Lowering' ./internal/engine/ ./internal/workload/ ./internal/core/
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'GoldenParallel|MatchesSerial|ChainsMatchSerial|Lowerings|OrderedExchange|OrderedMorsels|LeaveNothing|LeavesNothing|AllocatesNothing' ./internal/engine ./internal/workload
	$(GO) test -race -count=1 -run 'EventSkip|ArenaReuse|RunRepeats|Oracle|Recycle' ./internal/sim ./internal/mem ./internal/core ./internal/cache ./internal/trace
	$(GO) test -race -count=1 -run 'ForkEqualsFreshBuild|PoolImage|BTreeCursorSurvivesWrites|Inline|GoldenStagedOLTP|ForkConcurrentCallers' ./internal/trace ./internal/storage ./internal/workload ./internal/core
	$(GO) test -race -count=1 -run 'LoaderEqualsRowInserts|Appender|FreeFrameCursor' ./internal/storage ./internal/engine
	$(GO) test -race -count=1 -cpu 1,2 -run 'SidesOverlap|Golden|RunRepeats|Fork|Panic|GivingUp|ParallelJoin|ParallelHashJoin|ParallelOps' ./internal/par ./internal/engine ./internal/oltp ./internal/staged ./internal/core
	$(GO) test -race -count=1 -cpu 1,2 -run 'AtPace|Pace|Morsel' ./internal/trace ./internal/engine ./internal/sim
	$(GO) test -race -count=3 -run 'ConcurrentClients|RunMatchesMonolithic|TPCCClientTraced' ./internal/workload

# Every Go benchmark in the tree, one iteration each: the TPC-H and
# TPC-C loads and native Q1 and Q13 by worker count. The paper's measured
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

# Mirrors CI's figures step: the paper's Figure 3 validation, Figure 4's
# LC/FC ratios (its unsaturated OLTP pair runs one transaction sequence on
# two forks of the loaded database), Figure 5's breakdown and the
# staged-execution experiment at test scale, every cell through the one
# simulation lifecycle (core.Runner.simulate). Figure 2 is left out: its
# 128-client point does not fit in memory at test scale.
figures-smoke:
	$(GO) run ./cmd/figures -exp fig3 -scale test
	$(GO) run ./cmd/figures -exp fig4 -scale test
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
