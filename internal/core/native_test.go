// Tests for the native host-execution sweep: point structure and digest
// contracts always, and — under BENCH_NATIVE=1 — the CI speedup gates
// (compiled+selection ≥ 1.5× and zero-copy ≥ 1.9× over interpreted on
// Q6 at one worker, zero-copy ≥ 1.25× over the copying fast path; Q13's
// compiled join kernels over borrowed scans ≥ 1.3× over interpreted;
// ≥ 2.5× scaling at four workers when the host has four cores to give).

package core

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// writeBenchstatArtifact appends the sweep's points to the file named by
// BENCH_NATIVE_OUT in Go benchmark format — one line per point with
// ns/op, rows/s, and GB/s — so CI can archive a benchstat-consumable
// copy-vs-borrow comparison from the gate run.
func writeBenchstatArtifact(t *testing.T, runs []NativeRun) {
	path := os.Getenv("BENCH_NATIVE_OUT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("BENCH_NATIVE_OUT: %v", err)
	}
	defer f.Close()
	for _, r := range runs {
		flavor := "copy"
		switch {
		case r.Interpreted:
			flavor = "interpreted"
		case r.Borrowed:
			flavor = "borrow"
		}
		if r.JoinMode != "" && r.JoinMode != "auto" {
			flavor += "/join=" + r.JoinMode
		}
		fmt.Fprintf(f, "BenchmarkNativeQ%d/%s/workers=%d 1 %d ns/op %.0f rows/s %.3f GB/s\n",
			r.Query, flavor, r.Workers, r.Nanos, r.RowsPerSec, r.GBPerSec)
	}
}

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

// TestNativeSpeedupGate is the CI gate (run with BENCH_NATIVE=1): at one
// worker the copying fast path must beat interpreted Q6 by ≥ 1.5×, the
// zero-copy path by ≥ 1.9× over interpreted and ≥ 1.25× over copying;
// Q13's full fast path (compiled join kernels over borrowed scans) must
// beat interpreted by ≥ 1.3×; the partitioned and prefetch join modes
// must each beat the chained native path by ≥ 1.15× (best-of-3) with
// byte-identical digests, and simulated Q13 must show a strictly lower
// partitioned D-stall fraction; and four
// borrowed workers must scale ≥ 2.5× over one — the latter asserted only
// when the host has at least four CPUs (a single-core container cannot
// express parallel speedup). BENCH_NATIVE_OUT names a file to append a
// benchstat-style copy-vs-borrow summary to (the CI artifact).
func TestNativeSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_NATIVE") == "" {
		t.Skip("set BENCH_NATIVE=1 to run the native speedup gate")
	}
	// The gate measures at full scale: per-run times of 5-25ms are far
	// less noise-compressed than the test-scale 1-2ms floors, where timer
	// jitter and frequency drift can eat a 1.5x ratio whole. Each ratio is
	// the best over up to three sweep attempts — the flavors of one sweep
	// run seconds apart, so a frequency excursion in between produces a
	// spuriously low ratio that a fresh paired attempt rejects.
	big := NewRunner(FullScale())
	var interp, copy1, borrow1, copy4, borrow4 NativeRun
	var compiledX, borrowVsInterpX, borrowX float64
	for try := 0; try < 3; try++ {
		runs, err := big.RunNativeDSS(6, []int{1, 4}, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			switch {
			case r.Interpreted:
				interp = r
			case r.Workers == 1 && !r.Borrowed:
				copy1 = r
			case r.Workers == 1 && r.Borrowed:
				borrow1 = r
			case r.Workers == 4 && !r.Borrowed:
				copy4 = r
			case r.Workers == 4 && r.Borrowed:
				borrow4 = r
			}
		}
		if interp.Nanos == 0 || copy1.Nanos == 0 || borrow1.Nanos == 0 || copy4.Nanos == 0 || borrow4.Nanos == 0 {
			t.Fatalf("sweep incomplete: %+v", runs)
		}
		if borrow1.Digest != interp.Digest || copy1.Digest != interp.Digest {
			t.Fatalf("serial digests diverge: interpreted %#x copy %#x borrowed %#x",
				interp.Digest, copy1.Digest, borrow1.Digest)
		}
		if try == 0 {
			writeBenchstatArtifact(t, []NativeRun{interp, copy1, borrow1, copy4, borrow4})
		}
		compiledX = maxf(compiledX, float64(interp.Nanos)/float64(copy1.Nanos))
		borrowVsInterpX = maxf(borrowVsInterpX, float64(interp.Nanos)/float64(borrow1.Nanos))
		borrowX = maxf(borrowX, float64(copy1.Nanos)/float64(borrow1.Nanos))
		if compiledX >= 1.5 && borrowVsInterpX >= 1.9 && borrowX >= 1.25 {
			break
		}
	}
	t.Logf("q6 compiled+sel vs interpreted @1 worker: %.2fx (%.0f vs %.0f rows/sec)",
		compiledX, copy1.RowsPerSec, interp.RowsPerSec)
	if compiledX < 1.5 {
		t.Fatalf("compiled fast path %.2fx < 1.5x gate", compiledX)
	}
	t.Logf("q6 zero-copy vs interpreted @1 worker: %.2fx (%.1f GB/s)", borrowVsInterpX, borrow1.GBPerSec)
	if borrowVsInterpX < 1.9 {
		t.Fatalf("zero-copy %.2fx < 1.9x-over-interpreted gate", borrowVsInterpX)
	}
	t.Logf("q6 zero-copy vs copy @1 worker: %.2fx", borrowX)
	if borrowX < 1.25 {
		t.Fatalf("zero-copy %.2fx < 1.25x-over-copy gate", borrowX)
	}

	// Q13's gate point is the full fast path — compiled join kernels over
	// borrowed scans — against interpreted. Both flavors still land in the
	// artifact so the copy-vs-borrow comparison covers the join too.
	var joinX float64
	for try := 0; try < 3; try++ {
		q13, err := big.RunNativeDSS(13, []int{1}, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		if q13[2].Digest != q13[0].Digest {
			t.Fatalf("q13 serial digests diverge: interpreted %#x borrowed %#x", q13[0].Digest, q13[2].Digest)
		}
		if try == 0 {
			writeBenchstatArtifact(t, q13)
		}
		joinX = maxf(joinX, float64(q13[0].Nanos)/float64(q13[2].Nanos))
		if joinX >= 1.3 {
			break
		}
	}
	t.Logf("q13 compiled join kernels (zero-copy) vs interpreted @1 worker: %.2fx", joinX)
	if joinX < 1.3 {
		t.Fatalf("compiled join fast path %.2fx < 1.3x gate", joinX)
	}

	// Q13 join-mode gate: at full scale the cache-conscious modes must
	// each beat the chained native path by ≥ 1.15× on the borrowed fast
	// path — best over up to three sweep attempts, since the three modes
	// of one sweep run seconds apart — with all serial digests
	// byte-identical across modes.
	var partX, prefX float64
	for try := 0; try < 3; try++ {
		jm, err := big.RunNativeDSS(13, []int{1}, 7, true,
			engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch)
		if err != nil {
			t.Fatal(err)
		}
		// interpreted ref, then copy × 3 modes, then borrow × 3 modes.
		byMode := map[string]NativeRun{}
		for _, r := range jm[1:] {
			if r.Borrowed {
				byMode[r.JoinMode] = r
			}
		}
		ch, pa, pf := byMode["chained"], byMode["partitioned"], byMode["prefetch"]
		if ch.Nanos == 0 || pa.Nanos == 0 || pf.Nanos == 0 {
			t.Fatalf("join-mode sweep incomplete: %+v", jm)
		}
		for _, r := range jm[1:] {
			if r.Digest != jm[0].Digest {
				t.Fatalf("q13 %s (borrowed=%v) digest %#x != interpreted %#x",
					r.JoinMode, r.Borrowed, r.Digest, jm[0].Digest)
			}
		}
		if try == 0 {
			writeBenchstatArtifact(t, jm[1:])
		}
		partX = maxf(partX, float64(ch.Nanos)/float64(pa.Nanos))
		prefX = maxf(prefX, float64(ch.Nanos)/float64(pf.Nanos))
		if partX >= 1.15 && prefX >= 1.15 {
			break
		}
	}
	t.Logf("q13 partitioned vs chained @1 worker: %.2fx; prefetch vs chained: %.2fx", partX, prefX)
	if partX < 1.15 {
		t.Fatalf("partitioned join %.2fx < 1.15x-over-chained gate", partX)
	}
	if prefX < 1.15 {
		t.Fatalf("prefetch join %.2fx < 1.15x-over-chained gate", prefX)
	}

	// The simulated clock must agree with the paper's mechanism, not just
	// the wall clock: Q13's partitioned build/probe shows a strictly
	// lower D-stall (L2+mem) fraction of busy cycles than the chained
	// table, at identical result digests. The sim is deterministic, so
	// one run decides.
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	simCh, err := big.RunVecDSS(cell, 13, true, 7, engine.JoinChained)
	if err != nil {
		t.Fatal(err)
	}
	simPa, err := big.RunVecDSS(cell, 13, true, 7, engine.JoinPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if simPa.Digest != simCh.Digest {
		t.Fatalf("simulated q13 digests diverge: partitioned %#x chained %#x", simPa.Digest, simCh.Digest)
	}
	dfrac := func(r VecDSSResult) float64 {
		s := StallsOf(r.Result)
		return float64(s.DStallL2+s.DStallMem) / float64(s.Busy)
	}
	chF, paF := dfrac(simCh), dfrac(simPa)
	t.Logf("q13 simulated D-stall fraction: chained %.4f, partitioned %.4f", chF, paF)
	if paF >= chF {
		t.Fatalf("partitioned D-stall fraction %.4f not strictly below chained %.4f", paF, chF)
	}

	scalingX := float64(borrow1.Nanos) / float64(borrow4.Nanos)
	t.Logf("q6 zero-copy scaling @4 workers: %.2fx on %d host CPUs", scalingX, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; skipping the 4-worker scaling gate", runtime.NumCPU())
	}
	if scalingX < 2.5 {
		t.Fatalf("4-worker scaling %.2fx < 2.5x gate", scalingX)
	}
}
