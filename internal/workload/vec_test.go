// Golden equivalence tests for the vectorized executor: the vectorized
// Q1/Q6/Q13 plans must agree with the row-at-a-time seed operators byte
// for byte — serial plans, pinned shared rotations, and
// native plans on worker contexts, whose exchanges keep the serial
// order.

package workload

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/share"
)

var (
	vecOnce sync.Once
	vecDB   *TPCH
	vecErr  error
)

// vecTPCH builds (once) a small DSS database.
func vecTPCH(t *testing.T) *TPCH {
	t.Helper()
	vecOnce.Do(func() {
		vecDB, vecErr = BuildTPCH(TPCHConfig{Lineitems: 20000, ArenaBytes: 64 << 20})
	})
	if vecErr != nil {
		t.Fatal(vecErr)
	}
	return vecDB
}

// exactRows asserts got and want are byte-identical result sets: every
// value equal, floats compared by exact bits (decoded from identical
// bytes), no tolerance.
func exactRows(t *testing.T, label string, got, want [][]engine.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols, want %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			g, w := got[i][c], want[i][c]
			if g.Kind != w.Kind || g.I != w.I || g.F != w.F || g.S != w.S {
				t.Fatalf("%s row %d col %d: %+v, want %+v (not byte-identical)", label, i, c, g, w)
			}
		}
	}
}

// TestVectorizedGoldenSerial: serial vectorized Q1/Q6/Q13 are
// byte-identical to the row-at-a-time reference (same scan order, same
// accumulator machinery, same float addition order).
func TestVectorizedGoldenSerial(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	h := vecTPCH(t)
	ctx := h.DB.NewCtx(nil, 40, 48<<20)
	for _, q := range []int{1, 6, 13} {
		ctx.Work.Reset()
		want, err := h.RunQueryRow(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("q%d: empty reference result", q)
		}
		ctx.Work.Reset()
		got, err := h.RunQuery(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		exactRows(t, "q"+string(rune('0'+q)), got, want)
	}
}

// TestVectorizedGoldenStartPage: rotated scan origins (the circular
// shared-scan replay contract) stay byte-identical between executors.
func TestVectorizedGoldenStartPage(t *testing.T) {
	h := vecTPCH(t)
	ctx := h.DB.NewCtx(nil, 41, 48<<20)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30, StartPage: 4}
	for _, q := range []int{1, 6, 13} {
		ctx.Work.Reset()
		want, err := h.RunQueryRow(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Work.Reset()
		got, err := h.RunQuery(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		exactRows(t, "startpage/q"+string(rune('0'+q)), got, want)
	}
}

// TestVectorizedGoldenParallel: the native plans on worker contexts are
// byte-identical to the row-at-a-time serial reference across worker
// counts {1, 2, 4, 8}: the order-preserving exchange hands the aggregate
// the serial rows in the serial order, so even float sums match.
func TestVectorizedGoldenParallel(t *testing.T) {
	h := vecTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	serial := h.DB.NewCtx(nil, 42, 48<<20)
	for _, q := range []int{1, 6} {
		serial.Work.Reset()
		want, err := h.RunQueryRow(serial, q, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			ctxs := make([]*engine.Ctx, workers)
			for w := range ctxs {
				ctxs[w] = h.DB.NewCtx(nil, 44+w, 24<<20)
			}
			got, err := h.RunQueryParallelNative(ctxs, q, p, NativeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			exactRows(t, "parallel", got, want)
		}
	}
	// Q13's traced parallel form is the join core: row counts must match
	// the serial row-at-a-time join exactly at every worker count.
	want := serialJoinRows(t, h, serial)
	for _, workers := range []int{1, 2, 4, 8} {
		ctxs := make([]*engine.Ctx, workers)
		for w := range ctxs {
			ctxs[w] = h.DB.NewCtx(nil, 44+w, 24<<20)
		}
		got, err := h.RunJoinParallel(ctxs, 13, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("parallel join workers=%d: %d rows, serial %d", workers, got, want)
		}
	}
}

// TestVectorizedGoldenShared: a shared-scan rotation replayed serially
// from its start page — on the ROW-at-a-time reference operators — is
// byte-identical to the vectorized shared execution: private and shared,
// row and vectorized, all agree bit for bit at the same origin.
func TestVectorizedGoldenShared(t *testing.T) {
	h := vecTPCH(t)
	// Default registry, no result cache: every query must execute.
	env := h.NewShareEnvWith(share.Config{}, nil)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	ctx := h.DB.NewCtx(nil, 52, 48<<20)
	for _, q := range []int{1, 6, 13} {
		ctx.Work.Reset()
		got, start := runShared(t, h, ctx, q, p, env.Reg)
		env.Reg.WaitIdle()
		replay := p
		replay.StartPage = start + 1 // pin the rotation's origin (1-based)
		ctx.Work.Reset()
		want, err := h.RunQueryRow(ctx, q, replay)
		if err != nil {
			t.Fatal(err)
		}
		exactRows(t, "shared/q"+string(rune('0'+q)), got, want)
	}
}
