package workload

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/share"
)

func shareTPCH(t testing.TB) *TPCH {
	t.Helper()
	h, err := BuildTPCH(TPCHConfig{Lineitems: 20000, ArenaBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runShared executes one query on the shared lowering and returns its rows
// plus the rotation's start page: replayed privately from there
// (QueryParams.StartPage), the plan returns the same rows, bit for bit.
func runShared(t *testing.T, h *TPCH, ctx *engine.Ctx, q int, p QueryParams, reg *share.Registry) ([][]engine.Value, int) {
	t.Helper()
	pl, err := h.plan(q, p)
	if err != nil {
		t.Fatal(err)
	}
	l := h.lower(pl, exec{src: sharedSource, reg: reg})
	rows, err := l.collect(ctx)
	if err != nil {
		t.Fatalf("q%d shared: %v", q, err)
	}
	return rows, l.readers[0].StartPage()
}

// valuesEqual compares result sets bit for bit (float columns by their
// exact float64 bits, which reflect.DeepEqual preserves).
func valuesEqual(a, b [][]engine.Value) bool { return reflect.DeepEqual(a, b) }

// TestSharedQueriesMatchUnshared is the acceptance correctness check:
// for Q1/Q6/Q13 and client counts {1, 2, 8, 32}, every concurrent
// shared-scan execution returns rows byte-identical to a private serial
// run replayed from the same rotation origin (QueryParams.StartPage).
func TestSharedQueriesMatchUnshared(t *testing.T) {
	h := shareTPCH(t)
	for _, clients := range []int{1, 2, 8, 32} {
		for _, q := range Planned() {
			if testing.Short() && clients > 8 {
				continue
			}
			reg := share.NewRegistry(h.DB, share.Config{MorselPages: 4})
			type run struct {
				p     QueryParams
				rows  [][]engine.Value
				start int
			}
			runs := make([]run, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					prng := rand.New(rand.NewSource(int64(100*q + c)))
					p := RandomParams(prng)
					ctx := h.DB.NewCtx(nil, c, 12<<20)
					rows, start := runShared(t, h, ctx, q, p, reg)
					runs[c] = run{p: p, rows: rows, start: start}
				}(c)
			}
			wg.Wait()
			reg.WaitIdle()

			sctx := h.DB.NewCtx(nil, 40, 12<<20)
			for c, r := range runs {
				p := r.p
				p.StartPage = r.start + 1 // 1-based pin, exact even for page 0
				p.Phase = 0.37            // must be overridden by the pinned origin
				sctx.Work.Reset()
				want, err := h.RunQuery(sctx, q, p)
				if err != nil {
					t.Fatal(err)
				}
				if !valuesEqual(r.rows, want) {
					t.Fatalf("q%d clients=%d: client %d (start page %d) shared result differs from serial replay",
						q, clients, c, r.start)
				}
			}
		}
	}
}

// TestResultReuseServesRepeatsAndInvalidatesOnWrite is the satellite
// regression: repeated aggregates hit the cache; an insert between
// repeats (as a committing transaction's write would) must force a
// recomputation that reflects the new data — never a stale hit.
func TestResultReuseServesRepeatsAndInvalidatesOnWrite(t *testing.T) {
	h := shareTPCH(t)
	env := h.NewShareEnv()
	ctx := h.DB.NewCtx(nil, 0, 12<<20)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}

	first, err := h.RunQueryShared(ctx, 6, p, env)
	if err != nil {
		t.Fatal(err)
	}
	if st := env.Cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first run: %+v", st)
	}
	ctx.Work.Reset()
	again, err := h.RunQueryShared(ctx, 6, p, env)
	if err != nil {
		t.Fatal(err)
	}
	if st := env.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("repeat did not hit the cache: %+v", st)
	}
	if !valuesEqual(first, again) {
		t.Fatal("cache returned different rows")
	}

	// A write that changes Q6's answer: one lineitem inside every Q6
	// predicate range (shipdate in [Date-365, Date], discount == center,
	// quantity < bound), with a large extendedprice.
	if _, err := h.Lineitem().Insert(nil, []engine.Value{
		engine.IV(1), engine.IV(1), engine.IV(1),
		engine.FV(1), engine.FV(1e9), engine.FV(p.Discount), engine.FV(0),
		engine.SV("A"), engine.SV("O"), engine.IV(p.Date - 10),
	}); err != nil {
		t.Fatal(err)
	}
	ctx.Work.Reset()
	after, err := h.RunQueryShared(ctx, 6, p, env)
	if err != nil {
		t.Fatal(err)
	}
	if st := env.Cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-write query should miss (stale hit?): %+v", st)
	}
	if valuesEqual(first, after) {
		t.Fatal("post-write result identical to pre-write result: stale aggregate served")
	}
	if len(after) == 0 || after[0][1].F < first[0][1].F+1e7 {
		t.Fatalf("inserted revenue not visible: before %v, after %v", first[0][1], after[0][1])
	}
}

// TestResultReuseSharedAcrossClients: once one client has computed an
// aggregate, every later client with the same parameters is served the
// memoized rows instead of scanning again.
func TestResultReuseSharedAcrossClients(t *testing.T) {
	h := shareTPCH(t)
	env := h.NewShareEnv()
	p := QueryParams{Date: 2100, Discount: 0.04, Quantity: 25}
	wctx := h.DB.NewCtx(nil, 39, 12<<20)
	warm, err := h.RunQueryShared(wctx, 1, p, env)
	if err != nil {
		t.Fatal(err)
	}
	scansBefore := env.Reg.Stats().PagesScanned

	const clients = 8
	results := make([][][]engine.Value, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := h.DB.NewCtx(nil, c, 12<<20)
			rows, err := h.RunQueryShared(ctx, 1, p, env)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = rows
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if !valuesEqual(warm, results[c]) {
			t.Fatalf("client %d saw a different Q1 result than the memoized one", c)
		}
	}
	st := env.Cache.Stats()
	if st.Hits != clients {
		t.Fatalf("cache hits = %d, want %d (every repeat served from the cache): %+v", st.Hits, clients, st)
	}
	if after := env.Reg.Stats().PagesScanned; after != scansBefore {
		t.Fatalf("cache hits still scanned pages: %d -> %d", scansBefore, after)
	}
}

// TestRunConcurrentDSS smoke-tests the multi-client driver in both modes.
func TestRunConcurrentDSS(t *testing.T) {
	h := shareTPCH(t)
	un, err := h.RunConcurrentDSS(4, 2, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	if un.Queries != 8 {
		t.Fatalf("unshared driver ran %d queries, want 8", un.Queries)
	}
	sh, err := h.RunConcurrentDSS(4, 2, h.NewShareEnv(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Queries != 8 || sh.Scans.Rotations == 0 {
		t.Fatalf("shared driver: %+v", sh)
	}
}

// TestPlanFingerprintDiscriminates pins the result key's contract: same
// query and parameters agree (origin-independently); different predicate
// constants or queries differ; and a query whose predicates do not read
// the parameters (Q13) gets one key at every parameter set — the
// cross-client reuse shared-dss relies on.
func TestPlanFingerprintDiscriminates(t *testing.T) {
	h := shareTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	k1, err := h.resultKey(6, p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.StartPage = 18
	p2.Phase = 0.5
	k2, err := h.resultKey(6, p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("scan origin leaked into the plan fingerprint")
	}
	p3 := p
	p3.Date++
	k3, err := h.resultKey(6, p3)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Plan == k3.Plan {
		t.Fatal("different predicate constants produced equal fingerprints")
	}
	k6, err := h.resultKey(1, p)
	if err != nil {
		t.Fatal(err)
	}
	if k6.Plan == k1.Plan {
		t.Fatal("Q1 and Q6 plans produced equal fingerprints")
	}
	k13, err := h.resultKey(13, p)
	if err != nil {
		t.Fatal(err)
	}
	k13b, err := h.resultKey(13, QueryParams{Date: 1500, Discount: 0.07, Quantity: 24, StartPage: 3})
	if err != nil {
		t.Fatal(err)
	}
	if k13 != k13b {
		t.Fatalf("Q13 at two parameter sets got two keys: %+v vs %+v", k13, k13b)
	}
}
