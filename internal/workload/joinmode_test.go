// Golden equivalence for the join-mode knob: chained, partitioned, and
// prefetch are execution strategies, never semantics — on every layout,
// copy or borrowed, serial results are byte-identical across modes, and
// the morsel-parallel runs agree as multisets at every worker count.

package workload

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

var joinModes = []engine.JoinMode{engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch}

// inMode sets every context's join mode to m and returns them.
func inMode(ctxs []*engine.Ctx, m engine.JoinMode) []*engine.Ctx {
	for _, c := range ctxs {
		c.JoinMode = m
	}
	return ctxs
}

// TestJoinModeGoldenSerial: serial native Q13 under NSM+PAX × copy/
// borrowed × all three join modes. Chained is the reference; partitioned
// and prefetch must reproduce it byte for byte (the drain emits in probe
// row order and chains link in arrival order, so even duplicate-key
// match order is pinned).
func TestJoinModeGoldenSerial(t *testing.T) {
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		h := vecTPCH(t, layout)
		ctx := h.DB.NewCtx(nil, 57, 48<<20)
		for _, borrow := range []bool{false, true} {
			ctx.Work.Reset()
			ctx.JoinMode = engine.JoinChained
			want, err := h.RunQueryNative(ctx, 13, p, NativeOpts{ZeroCopy: borrow})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%v borrow=%v: empty chained reference", layout, borrow)
			}
			for _, m := range joinModes[1:] {
				ctx.Work.Reset()
				ctx.JoinMode = m
				got, err := h.RunQueryNative(ctx, 13, p, NativeOpts{ZeroCopy: borrow})
				if err != nil {
					t.Fatal(err)
				}
				exactRows(t, layout.String()+"/"+m.String(), got, want)
			}
		}
	}
}

// TestJoinModeGoldenParallel: native Q13 on worker contexts under every
// join mode × copy/borrowed returns the serial chained result byte for
// byte at worker counts {1, 2, 4, 8}.
func TestJoinModeGoldenParallel(t *testing.T) {
	h := vecTPCH(t, storage.NSM)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	serial := h.DB.NewCtx(nil, 56, 48<<20)
	want, err := h.RunQueryNative(serial, 13, p, NativeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, borrow := range []bool{false, true} {
			for _, m := range joinModes {
				got, err := h.RunQueryParallelNative(inMode(nativeWorkerCtxs(h, workers), m), 13, p,
					NativeOpts{ZeroCopy: borrow})
				if err != nil {
					t.Fatal(err)
				}
				exactRows(t, m.String(), got, want)
			}
		}
	}
}

// TestPartitionedBuildRaceHammer repeatedly drives the 8-worker parallel
// join with the partitioned and prefetch modes pinned so `go test -race`
// can watch the scatter, per-partition builds, and batched probe walks
// for unsynchronized access.
func TestPartitionedBuildRaceHammer(t *testing.T) {
	h := vecTPCH(t, storage.NSM)
	p := QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}
	iters := 4
	if testing.Short() {
		iters = 1
	}
	ctxs := nativeWorkerCtxs(h, 8)
	for i := 0; i < iters; i++ {
		for _, m := range []engine.JoinMode{engine.JoinPartitioned, engine.JoinPrefetch} {
			for _, c := range ctxs {
				c.Work.Reset()
			}
			rows, err := h.RunQueryParallelNative(inMode(ctxs, m), 13, p, NativeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatalf("iter %d %v: empty result", i, m)
			}
		}
	}
}
