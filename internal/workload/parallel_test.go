package workload

import (
	"math"
	"sync"
	"testing"

	"repro/internal/engine"
)

// parShared builds one small DSS database for the parallel-variant tests.
var (
	parOnce sync.Once
	parDB   *TPCH
	parErr  error
)

func parTPCH(t *testing.T) *TPCH {
	t.Helper()
	parOnce.Do(func() {
		parDB, parErr = BuildTPCH(TPCHConfig{Lineitems: 20000, ArenaBytes: 64 << 20})
	})
	if parErr != nil {
		t.Fatal(parErr)
	}
	return parDB
}

func parCtxs(h *TPCH, n int) []*engine.Ctx {
	ctxs := make([]*engine.Ctx, n)
	for w := 0; w < n; w++ {
		ctxs[w] = h.DB.NewCtx(nil, 50+w, 32<<20)
	}
	return ctxs
}

// sameRows compares decoded result rows: exact for ints and chars, to a
// relative tolerance for floats (parallel sums reassociate additions).
func sameRows(t *testing.T, label string, got, want [][]engine.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols, want %d", label, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			if g.Kind != w.Kind {
				t.Fatalf("%s row %d col %d: kind %v, want %v", label, i, c, g.Kind, w.Kind)
			}
			switch w.Kind {
			case engine.TInt:
				if g.I != w.I {
					t.Fatalf("%s row %d col %d: %d, want %d", label, i, c, g.I, w.I)
				}
			case engine.TFloat:
				if math.Abs(g.F-w.F) > 1e-6*(1+math.Abs(w.F)) {
					t.Fatalf("%s row %d col %d: %v, want %v", label, i, c, g.F, w.F)
				}
			default:
				if g.S != w.S {
					t.Fatalf("%s row %d col %d: %q, want %q", label, i, c, g.S, w.S)
				}
			}
		}
	}
}

func TestQ1ParallelMatchesSerialAcrossWorkerCounts(t *testing.T) {
	h := parTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	want, err := h.RunQuery(h.DB.NewCtx(nil, 49, 32<<20), 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("Q1 returned no groups")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := h.RunQueryParallelNative(parCtxs(h, workers), 1, p, NativeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "Q1 workers="+string(rune('0'+workers)), got, want)
	}
}

func TestQ6ParallelMatchesSerialAcrossWorkerCounts(t *testing.T) {
	h := parTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	want, err := h.RunQuery(h.DB.NewCtx(nil, 49, 32<<20), 6, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := h.RunQueryParallelNative(parCtxs(h, workers), 6, p, NativeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "Q6", got, want)
	}
}

// serialJoinRows counts the rows of Q13's join alone — customer left outer
// join its non-special orders — on the row-at-a-time reference operators.
func serialJoinRows(t *testing.T, h *TPCH, ctx *engine.Ctx) int {
	t.Helper()
	pl, err := h.plan(13, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := engine.Run(ctx, h.rowInput(pl), func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestParallelJoinRowCountMatchesSerial(t *testing.T) {
	h := parTPCH(t)
	want := serialJoinRows(t, h, h.DB.NewCtx(nil, 49, 32<<20))
	if want == 0 {
		t.Fatal("serial join produced no rows")
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := h.RunJoinParallel(parCtxs(h, workers), 13, QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %d join rows, serial %d", workers, got, want)
		}
	}
}

func TestRunQueryParallelRejectsUnknown(t *testing.T) {
	h := parTPCH(t)
	if _, err := h.RunQueryParallelNative(parCtxs(h, 2), 16, QueryParams{}, NativeOpts{}); err == nil {
		t.Fatal("query 16 has no parallel variant but was accepted")
	}
	if _, err := h.RunJoinParallel(parCtxs(h, 2), 6, QueryParams{}); err == nil {
		t.Fatal("query 6 has no join but its join was run")
	}
}
