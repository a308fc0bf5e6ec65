// Tests for the native host-execution sweep: point structure, digest and
// lease contracts, and request validation. Its wall-clock ratios
// (compiled vs interpreted, borrow vs copy, join modes, worker scaling)
// are measured by bench's ladder, not asserted here.

package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestRunNativeDSSSweepShape: the sweep leads with the interpreted
// 1-worker reference, carries one compiled point per requested count,
// and every serial digest is byte-identical (interpreted, compiled, and
// 1-worker parallel all execute the same row order).
func TestRunNativeDSSSweepShape(t *testing.T) {
	for _, q := range []int{1, 6, 13} {
		runs, err := sharedRunner.RunNativeDSS(q, []int{1, 2}, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 3 {
			t.Fatalf("q%d: %d points, want 3 (interpreted + 2 counts)", q, len(runs))
		}
		ref := runs[0]
		if !ref.Interpreted || ref.Workers != 1 {
			t.Fatalf("q%d: first point %+v is not the interpreted reference", q, ref)
		}
		for i, r := range runs {
			if r.Query != q || r.Rows <= 0 || r.Nanos <= 0 || r.RowsPerSec <= 0 || r.ResultRows <= 0 {
				t.Fatalf("q%d point %d: incomplete measurement %+v", q, i, r)
			}
			if r.BytesScanned <= 0 || r.GBPerSec <= 0 {
				t.Fatalf("q%d point %d: missing bandwidth accounting %+v", q, i, r)
			}
			if r.MedianNanos < r.Nanos || r.IQRNanos < 0 {
				t.Fatalf("q%d point %d: median %d < best %d or IQR %d < 0",
					q, i, r.MedianNanos, r.Nanos, r.IQRNanos)
			}
			if i > 0 && r.Interpreted {
				t.Fatalf("q%d point %d: unexpected interpreted point", q, i)
			}
			if r.Borrowed {
				t.Fatalf("q%d point %d: borrowed point in a copy-only sweep", q, i)
			}
		}
		if runs[1].Workers != 1 || runs[2].Workers != 2 {
			t.Fatalf("q%d: worker counts %d,%d, want 1,2", q, runs[1].Workers, runs[2].Workers)
		}
		if runs[1].Digest != ref.Digest {
			t.Fatalf("q%d: compiled serial digest %#x != interpreted %#x (fast path changed the result)",
				q, runs[1].Digest, ref.Digest)
		}
		if runs[2].Digest != countDigest(runs[2].ResultRows) {
			t.Fatalf("q%d: parallel digest is not the row-count digest", q)
		}
		if runs[2].ResultRows != ref.ResultRows {
			t.Fatalf("q%d: parallel result rows %d != serial %d", q, runs[2].ResultRows, ref.ResultRows)
		}
	}
}

// TestRunNativeDSSZeroCopySweep: with zeroCopy set every worker count is
// measured twice — copying then borrowed — the borrowed serial digest is
// byte-identical to the interpreted reference, and the sweep ends with
// zero outstanding page leases (borrowed blocks release their pins).
func TestRunNativeDSSZeroCopySweep(t *testing.T) {
	h, err := sharedRunner.TPCH()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 6, 13} {
		runs, err := sharedRunner.RunNativeDSS(q, []int{1, 2}, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 5 {
			t.Fatalf("q%d: %d points, want 5 (interpreted + copy/borrow at 2 counts)", q, len(runs))
		}
		ref := runs[0]
		want := []struct {
			workers  int
			borrowed bool
		}{{1, false}, {1, true}, {2, false}, {2, true}}
		for i, w := range want {
			r := runs[i+1]
			if r.Workers != w.workers || r.Borrowed != w.borrowed || r.Interpreted {
				t.Fatalf("q%d point %d: got workers=%d borrowed=%v, want workers=%d borrowed=%v",
					q, i+1, r.Workers, r.Borrowed, w.workers, w.borrowed)
			}
		}
		for _, r := range runs[1:3] {
			if r.Digest != ref.Digest {
				t.Fatalf("q%d: serial digest %#x (borrowed=%v) != interpreted %#x",
					q, r.Digest, r.Borrowed, ref.Digest)
			}
		}
		if n := h.DB.Pool.Leases(); n != 0 {
			t.Fatalf("q%d: %d page leases outstanding after the sweep", q, n)
		}
	}
}

// TestRunNativeDSSConcurrentSweeps: two zero-copy sweeps share one Runner
// — and so one buffer pool — and both succeed. Each sweep accounts for
// the leases of its own contexts; a pool-wide count taken while the other
// sweep has a page borrowed would call that a leak.
func TestRunNativeDSSConcurrentSweeps(t *testing.T) {
	h, err := sharedRunner.TPCH()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(q int) error {
		runs, err := sharedRunner.RunNativeDSS(q, []int{1, 2}, 7, true)
		if err == nil && runs[2].Digest != runs[0].Digest {
			err = fmt.Errorf("q%d: borrowed serial digest %#x != interpreted %#x", q, runs[2].Digest, runs[0].Digest)
		}
		return err
	}
	// Q6 sweeps, each ending in a lease check, for as long as a Q1 sweep
	// (the slower one) is borrowing pages.
	q1Done := make(chan struct{})
	var q1Err, q6Err error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(q1Done)
		q1Err = sweep(1)
	}()
	go func() {
		defer wg.Done()
		for q6Err == nil {
			q6Err = sweep(6)
			select {
			case <-q1Done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	for _, err := range []error{q1Err, q6Err} {
		if err != nil {
			t.Error(err)
		}
	}
	if n := h.DB.Pool.Leases(); n != 0 {
		t.Fatalf("%d page leases outstanding after both sweeps", n)
	}
}

// TestRequestNativeWorkersValidation: native sweeps are DSS-only, need a
// concrete query, and reject non-positive counts; zero-copy needs a
// native sweep to ride on.
func TestRequestNativeWorkersValidation(t *testing.T) {
	bad := []Request{
		{Mode: ModeStagedOLTP, NativeWorkers: []int{1}},
		{Mode: ModeVecDSS, NativeWorkers: []int{0}},
		{Mode: ModeSharedDSS, Query: 0, NativeWorkers: []int{1}}, // mix has no single native plan
		{Mode: ModeParallelDSS, NativeWorkers: []int{2, -1}},
	}
	for i, req := range bad {
		req = req.WithDefaults()
		if req.Mode == ModeSharedDSS {
			req.Query = 0
		}
		err := req.Validate()
		if err == nil {
			t.Fatalf("case %d: invalid native request validated: %+v", i, req)
		}
		if verr, ok := err.(*ValidationError); !ok || verr.Field != "native_workers" {
			t.Fatalf("case %d: error %v does not name native_workers", i, err)
		}
	}
	zc := Request{Mode: ModeVecDSS, Query: 6, NativeZeroCopy: true}.WithDefaults()
	err := zc.Validate()
	if verr, ok := err.(*ValidationError); !ok || verr.Field != "native_zero_copy" {
		t.Fatalf("zero-copy without native_workers: error %v does not name native_zero_copy", err)
	}
	good := Request{Mode: ModeVecDSS, Query: 6, NativeWorkers: []int{1, 4}, NativeZeroCopy: true}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid native request rejected: %v", err)
	}
}
