package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server/api"
	"repro/internal/workload"
)

// workloadDef is one of the benchmark's four closed-loop workloads.
// Callers of a simulation service wait for their reply, so every client
// sends its next request only after the previous one completed, and no
// workload runs more clients than the sizing host has processors (2).
type workloadDef struct {
	name    string
	why     string
	clients int
	kinds   []string
	setup   func(seed int64) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:    "dss_traced",
		why:     "simulator-bound: trace, sim and cache do >95% of each served query, native kernels none; a trace/sim speed-up must show here",
		clients: 1,
		kinds:   []string{"q6", "q1", "q13", "par", "shared"},
		setup:   setupDSSTraced,
	},
	{
		name:    "dss_native",
		why:     "mirror image: storage, engine and workload kernels do all the work at full scale, trace/sim/cache/server none; a sim change must not move it",
		clients: 1,
		kinds:   []string{"q6", "q1", "q13"},
		setup:   setupDSSNative,
	},
	{
		name:    "oltp_staged",
		why:     "write path: B+tree and heap writes, locks, cohort scheduler, instruction-stall-heavy traces and a fresh TPC-C build per side of every request",
		clients: 1,
		kinds:   []string{"txn"},
		setup:   setupOLTPStaged,
	},
	{
		name:    "mixed_concurrent",
		why:     "two clients share one Runner, admission table, job store and Go heap: contention, GC interference and control-plane cost show only here",
		clients: 2,
		kinds:   []string{"q6", "q13", "txn"},
		setup:   setupMixed,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// op is one operation kind of a client's loop. Its requests come from
// a pool of seeds drawn from the benchmark's seed and visited round
// robin: a single request seed would make a run's latency depend on that
// seed's predicate selectivity or transaction mix (a TPC-C batch of 64
// varies by ±10 % in simulated work from seed to seed), which is input
// variance, not the system's. do is the timed part (for a served
// operation: the HTTP round trip including decoding the reply, as a
// client pays it); the correctness check runs untimed.
type op struct {
	kind  int // index into the workload's kinds
	slots []slot
	next  int
	do    func(seed int64) (observed, error)
	after func() // untimed bookkeeping or control-plane work
}

// slot is one request of an operation's pool.
type slot struct {
	seed int64
	exp  expect
}

func (o *op) run() sample {
	s := &o.slots[o.next%len(o.slots)]
	o.next++
	t0 := time.Now()
	got, err := o.do(s.seed)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil {
		err = s.exp.check(got)
	}
	if o.after != nil {
		o.after()
	}
	return sample{kind: o.kind, ms: ms, err: err}
}

// newOp builds an operation whose pool holds one slot per seed, each
// with a copy of the kind's contract.
func newOp(kind int, seeds []int64, contract expect, do func(seed int64) (observed, error)) *op {
	o := &op{kind: kind, do: do, slots: make([]slot, len(seeds))}
	for i, s := range seeds {
		o.slots[i] = slot{seed: s, exp: contract}
	}
	return o
}

// poolSeeds derives n request seeds from the benchmark's seed.
func poolSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<40) // never 0: a zero request seed means "default"
	}
	return out
}

// Pool sizes. A served DSS request costs 0.3-3 s, so a window visits a
// handful of seeds whatever the pool holds; a transaction batch is cheap
// and seed-sensitive, so its pool is large; a native golden is an
// interpreted full-scale execution (3x the operation), which keeps that
// pool small.
const (
	dssPool    = 4
	txnPool    = 64
	nativePool = 8
	// txnGoldens is how many of a batch pool's slots are checked against
	// an execution on a runner apart from the server's; the rest rely on
	// monolithic == cohort (two executors, two fresh databases) and on
	// repeating their own first answer.
	txnGoldens = 4
)

// instance is one set-up workload: a loop of operations per client, the
// golden computation, the end-of-window checks, and the teardown.
type instance struct {
	loops [][]*op
	// prepare computes goldens. It is the benchmark's own bookkeeping,
	// not the system's set-up, so it runs once, untimed, after the last
	// set-up repetition.
	prepare func() error
	finish  func() error
	close   func() error
}

// measure runs every client's closed loop for the window. A client
// finishes the round it is in (one operation of each of its kinds), so
// every kind has the same sample count and ops_per_s is not skewed by
// which kind the deadline happened to cut.
func (in *instance) measure(window time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for _, loop := range in.loops {
		wg.Add(1)
		go func(loop []*op) {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < window {
				for _, o := range loop {
					mine = append(mine, o.run())
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(loop)
	}
	wg.Wait()
	return all, time.Since(start)
}

// warm sends each operation's first request once, unchecked and
// untimed; an error fails the set-up.
func warm(ops ...*op) error {
	for _, o := range ops {
		if _, err := o.do(o.slots[0].seed); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if o.after != nil {
			o.after()
		}
	}
	return nil
}

// The served request shapes, one per operation kind.
func vecQuery(q int, seed int64) api.QueryRequest {
	return api.QueryRequest{Mode: string(core.ModeVecDSS), Query: q, Seed: seed}
}

func parQuery(seed int64) api.QueryRequest {
	return api.QueryRequest{Mode: string(core.ModeParallelDSS), Query: 1, Workers: 4, Seed: seed}
}

func sharedQuery(seed int64) api.QueryRequest {
	return api.QueryRequest{Mode: string(core.ModeSharedDSS), Query: 0, Clients: 8, Seed: seed}
}

// txnBatch is the staged-OLTP request. The issue sized it with
// "parts": 2; at the parent commit a partitioned cohort run
// intermittently fails its own digest check (4 of 1160 distinct seeds
// under load, repeatedly for some), and a workload may not contain
// failing operations, so the benchmark uses one partition.
func txnBatch(seed int64) api.TxnRequest {
	return api.TxnRequest{Clients: 8, Txns: 8, Cohort: 16, Parts: 1, RemotePct: 10, Seed: seed}
}

// nativeArena sizes the nil-recorder workspace of golden and native
// executions, as core.RunNativeDSS does.
const nativeArena = 64 << 20

// vecOp is a served serial query: both executors must agree and both
// sides' simulated cycles must repeat.
func vecOp(s *testServer, kind, q int, seeds []int64) *op {
	return newOp(kind, seeds, expect{rows: -1, sidesEqual: true, cyclesRepeat: true},
		func(seed int64) (observed, error) { return s.query(vecQuery(q, seed)) })
}

// txnOp is a served transaction batch, synchronous or as a polled job.
func txnOp(kind int, seeds []int64, send func(api.TxnRequest) (observed, error)) *op {
	return newOp(kind, seeds, expect{rows: -1, sidesEqual: true},
		func(seed int64) (observed, error) { return send(txnBatch(seed)) })
}

// dssGoldens fills the golden digests of served serial-query operations
// (and the golden row count of the parallel one) by executing each pool
// request with a nil recorder on a database built apart from the
// server's. A trace-free execution is an independent path to the same
// rows and costs milliseconds where a second traced run costs the
// request again.
func dssGoldens(scale core.Scale, vec map[int]*op, par *op) error {
	h, err := workload.BuildTPCH(scale.TPCH)
	if err != nil {
		return fmt.Errorf("golden TPC-H build: %w", err)
	}
	ctx := h.DB.NewCtx(nil, 90, nativeArena)
	golden := func(q int, seed int64) (uint64, int, error) {
		ctx.Work.Reset()
		rows, err := h.RunQuery(ctx, q, workload.RandomParams(rand.New(rand.NewSource(seed))))
		if err != nil {
			return 0, 0, fmt.Errorf("golden q%d seed %d: %w", q, seed, err)
		}
		return core.RowsDigest(rows), len(rows), nil
	}
	for q, o := range vec {
		for i := range o.slots {
			d, _, err := golden(q, o.slots[i].seed)
			if err != nil {
				return err
			}
			o.slots[i].exp.digest = &d
		}
	}
	if par != nil {
		// Parallel digests fingerprint the row count only (float sums
		// vary with morsel claiming), so the count is the golden.
		for i := range par.slots {
			_, n, err := golden(1, par.slots[i].seed)
			if err != nil {
				return err
			}
			par.slots[i].exp.rows = n
		}
	}
	return nil
}

// txnGoldens runs the first txnGoldens pool batches on a runner apart
// from the server's and pins their digests.
func txnGoldensFor(scale core.Scale, o *op) error {
	r := core.NewRunner(scale)
	for i := 0; i < txnGoldens && i < len(o.slots); i++ {
		creq, err := txnBatch(o.slots[i].seed).ToCore()
		if err != nil {
			return err
		}
		res, err := r.Run(context.Background(), creq)
		if err != nil {
			return fmt.Errorf("golden txn batch seed %d: %w", o.slots[i].seed, err)
		}
		o.slots[i].exp.digest = &res.Digest
	}
	return nil
}

func setupDSSTraced(seed int64) (*instance, error) {
	scale := core.TestScale()
	s, err := startServer(scale)
	if err != nil {
		return nil, err
	}
	seeds := poolSeeds(seed, dssPool)
	q6, q1, q13 := vecOp(s, 0, 6, seeds), vecOp(s, 1, 1, seeds), vecOp(s, 2, 13, seeds)
	par := newOp(3, seeds, expect{rows: -1, sidesEqual: true, cyclesRepeat: true},
		func(seed int64) (observed, error) { return s.query(parQuery(seed)) })
	// Neither side's cycles are asserted for shared-dss: eight client
	// threads and the scan producers interleave live.
	shared := newOp(4, seeds, expect{rows: -1, mainDigestVaries: true},
		func(seed int64) (observed, error) { return s.query(sharedQuery(seed)) })
	// One served query loads the server's database and exercises the
	// whole request path; warming all five kinds would cost a full round
	// (several seconds) in every set-up repetition.
	if err := warm(q13); err != nil {
		s.close()
		return nil, err
	}
	return &instance{
		loops:   [][]*op{{q6, q1, q13, par, shared}},
		prepare: func() error { return dssGoldens(scale, map[int]*op{6: q6, 1: q1, 13: q13}, par) },
		finish:  s.reconcile,
		close:   s.close,
	}, nil
}

func setupDSSNative(seed int64) (*instance, error) {
	h, err := workload.BuildTPCH(core.FullScale().TPCH)
	if err != nil {
		return nil, err
	}
	ctx := h.DB.NewCtx(nil, 90, nativeArena)
	params := func(seed int64) workload.QueryParams {
		return workload.RandomParams(rand.New(rand.NewSource(seed)))
	}
	seeds := poolSeeds(seed, nativePool)
	queries := []int{6, 1, 13}
	var loop []*op
	for i, q := range queries {
		o := newOp(i, seeds, expect{rows: -1}, func(seed int64) (observed, error) {
			// Digesting at most two dozen result rows is noise beside
			// the query; resetting the workspace is the caller's
			// bookkeeping and stays untimed, as in core.RunNativeDSS.
			rows, err := h.RunQueryNative(ctx, q, params(seed), workload.NativeOpts{ZeroCopy: true})
			return observed{digest: core.RowsDigest(rows), rows: len(rows)}, err
		})
		o.after = func() { ctx.Work.Reset() }
		loop = append(loop, o)
	}
	if err := warm(loop...); err != nil {
		return nil, err
	}
	prepare := func() error {
		// The golden of every pool request is the interpreted,
		// copy-compacting reference plan.
		for i, q := range queries {
			for j := range loop[i].slots {
				sl := &loop[i].slots[j]
				ctx.Work.Reset()
				ref, err := h.RunQueryNative(ctx, q, params(sl.seed), workload.NativeOpts{Interpret: true, Compact: true})
				if err != nil {
					return fmt.Errorf("interpreted reference q%d: %w", q, err)
				}
				d := core.RowsDigest(ref)
				sl.exp.digest, sl.exp.rows = &d, len(ref)
			}
		}
		ctx.Work.Reset()
		// Collect the references' garbage before the window, as the
		// native sweep in core does before it times anything.
		runtime.GC()
		return nil
	}
	finish := func() error {
		// Borrowed blocks pin buffer-pool pages; a lease still out after
		// the window is a leaked pin in an operator's close path.
		if n := h.DB.Pool.Leases(); n != 0 {
			return fmt.Errorf("%d page leases outstanding after the window", n)
		}
		return nil
	}
	return &instance{loops: [][]*op{loop}, prepare: prepare, finish: finish, close: func() error { return nil }}, nil
}

func setupOLTPStaged(seed int64) (*instance, error) {
	scale := core.TestScale()
	s, err := startServer(scale)
	if err != nil {
		return nil, err
	}
	txn := txnOp(0, poolSeeds(seed, txnPool), s.txn)
	if err := warm(txn); err != nil {
		s.close()
		return nil, err
	}
	return &instance{
		loops:   [][]*op{{txn}},
		prepare: func() error { return txnGoldensFor(scale, txn) },
		finish:  s.reconcile,
		close:   s.close,
	}, nil
}

func setupMixed(seed int64) (*instance, error) {
	scale := core.TestScale()
	s, err := startServer(scale)
	if err != nil {
		return nil, err
	}
	seeds := poolSeeds(seed, dssPool)
	q6, q13 := vecOp(s, 0, 6, seeds), vecOp(s, 1, 13, seeds)
	txn := txnOp(2, poolSeeds(seed, txnPool), s.txnJob)
	// Control-plane load beside the data plane: a monitoring scrape
	// every tenth job.
	jobs := 0
	var scrapeErr error
	txn.after = func() {
		if jobs++; jobs%10 == 0 {
			if _, err := s.counter("dbserver_requests_total"); err != nil && scrapeErr == nil {
				scrapeErr = err
			}
		}
	}
	if err := warm(q13, txn); err != nil {
		s.close()
		return nil, err
	}
	return &instance{
		// Client A alternates the two serial queries; client B submits
		// batches as jobs and polls them.
		loops: [][]*op{{q6, q13}, {txn}},
		prepare: func() error {
			if err := dssGoldens(scale, map[int]*op{6: q6, 13: q13}, nil); err != nil {
				return err
			}
			return txnGoldensFor(scale, txn)
		},
		finish: func() error {
			if scrapeErr != nil {
				return fmt.Errorf("metrics scrape: %w", scrapeErr)
			}
			return s.reconcile()
		},
		close: s.close,
	}, nil
}
