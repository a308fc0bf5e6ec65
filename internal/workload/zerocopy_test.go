// Golden equivalence tests for zero-copy execution: borrowed
// (page-aliasing) native plans must return byte-identical results to the
// standard plans on both layouts, serial and morsel-parallel, and every
// run must end with zero outstanding page leases — a leaked lease means
// some borrowed block never released its pin.

package workload

import (
	"testing"
)

// leaseCheck fails the test when outstanding page leases survive a run.
func leaseCheck(t *testing.T, h *TPCH, what string) {
	t.Helper()
	if n := h.DB.Pool.Leases(); n != 0 {
		t.Fatalf("%s: %d page leases outstanding, want 0", what, n)
	}
}

// TestZeroCopyGoldenSerial: the zero-copy native flavor of Q1/Q6/Q13 is
// byte-identical to the standard vectorized plan, with no lease leaked.
// Full-row scans take the alias fast path; shapes it rejects fall back to
// copying per page — either way the rows must match exactly.
func TestZeroCopyGoldenSerial(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	h := vecTPCH(t)
	ctx := h.DB.NewCtx(nil, 61, 48<<20)
	for _, q := range []int{1, 6, 13} {
		ctx.Work.Reset()
		want, err := h.RunQuery(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("q%d: empty reference result", q)
		}
		ctx.Work.Reset()
		got, err := h.RunQueryNative(ctx, q, p, NativeOpts{ZeroCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		name := "q" + string(rune('0'+q)) + "/zero-copy"
		exactRows(t, name, got, want)
		leaseCheck(t, h, name)
	}
}

// TestZeroCopyGoldenParallel: zero-copy runs on worker contexts return
// the serial zero-copy plan's rows byte for byte at every worker count,
// leaking no leases.
func TestZeroCopyGoldenParallel(t *testing.T) {
	h := vecTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	serial := h.DB.NewCtx(nil, 62, 48<<20)
	for _, q := range []int{1, 6, 13} {
		serial.Work.Reset()
		want, err := h.RunQueryNative(serial, q, p, NativeOpts{ZeroCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := h.RunQueryParallelNative(nativeWorkerCtxs(h, workers), q, p, NativeOpts{ZeroCopy: true})
			if err != nil {
				t.Fatal(err)
			}
			exactRows(t, "zero-copy-parallel", got, want)
			leaseCheck(t, h, "zero-copy-parallel")
		}
	}
}

// TestZeroCopyParallelRaceHammer repeatedly drives 8-worker zero-copy
// parallel plans so `go test -race` can watch borrowed blocks cross the
// morsel pool, the partitioned join, and the recycle rings; every
// iteration must end lease-clean.
func TestZeroCopyParallelRaceHammer(t *testing.T) {
	h := vecTPCH(t)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	iters := 6
	if testing.Short() {
		iters = 2
	}
	ctxs := nativeWorkerCtxs(h, 8)
	for i := 0; i < iters; i++ {
		for _, q := range []int{1, 6, 13} {
			for _, c := range ctxs {
				c.Work.Reset()
			}
			rows, err := h.RunQueryParallelNative(ctxs, q, p, NativeOpts{ZeroCopy: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatalf("iter %d q%d: empty result", i, q)
			}
			leaseCheck(t, h, "race-hammer")
		}
	}
}
