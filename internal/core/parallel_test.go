package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
)

// parCell is the fixed chip geometry the parallel tests share (4-core FC
// CMP), so worker-count comparisons measure executor scaling only. The
// saturated default of 400k warming refs would consume a test-scale
// query before measurement starts — and the vectorized executor emits
// several times fewer refs per query than the old row-at-a-time scans —
// so 5k warms the caches while leaving every worker's share observable.
func parCell() Cell {
	c := DefaultCell(sim.FatCamp, DSS, true)
	c.WarmRefs = 5000
	return c
}

// parRequest is the resolved parallel-dss request for query q on parCell.
func parRequest(q int) Request {
	cell := parCell()
	return Request{Mode: ModeParallelDSS, Query: q, Cell: &cell}.WithDefaults()
}

func TestRunParallelDSSCompletes(t *testing.T) {
	res, err := sharedRunner.parallelDSS(parRequest(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles measured")
	}
	if res.Rows == 0 {
		t.Fatal("query produced no result rows")
	}
	if res.Workers != 2 || res.Label != "parallel-2" {
		t.Fatalf("result mislabeled: %+v", res)
	}
}

func TestParallelSpeedupScalesWithWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated speedup sweep in -short mode")
	}
	// The morsel executor must convert cores into query speedup: 4 workers
	// beat 1 worker by at least 1.8x on the scan-dominated analog (the
	// observed ratio is ~2.6; the slack absorbs steal-order variation).
	cell := parCell()
	res, err := sharedRunner.Run(context.Background(), Request{
		Mode: ModeParallelDSS, Query: 6, Seed: 7, Workers: 4, WorkerCounts: []int{1, 4}, Cell: &cell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeedupX < 1.8 {
		t.Fatalf("scan speedup %.2f on 4 workers, want >= 1.8", res.SpeedupX)
	}
}

func TestParallelJoinMode(t *testing.T) {
	one, err := sharedRunner.parallelDSS(parRequest(ParallelJoinQuery), 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := sharedRunner.parallelDSS(parRequest(ParallelJoinQuery), 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Rows != four.Rows {
		t.Fatalf("join row count differs across worker counts: %d vs %d", one.Rows, four.Rows)
	}
	if four.Cycles >= one.Cycles {
		t.Fatalf("4-worker join (%d cycles) not faster than 1-worker (%d)", four.Cycles, one.Cycles)
	}
}

func TestRunParallelDSSRejectsBadArgs(t *testing.T) {
	cell := parCell()
	for _, tc := range []struct {
		req   Request
		field string
	}{
		{Request{Mode: ModeParallelDSS, Query: 6, WorkerCounts: []int{0}, Cell: &cell}, "workers"},
		{Request{Mode: ModeParallelDSS, Query: 16, Workers: 2, Cell: &cell}, "query"},
	} {
		var ve *ValidationError
		if _, err := sharedRunner.Run(context.Background(), tc.req); !errors.As(err, &ve) || ve.Field != tc.field {
			t.Errorf("%+v: got %v, want a *ValidationError naming %q", tc.req, err, tc.field)
		}
	}
}

// TestRunRepeatsParallelJoinModes: the traced parallel Q13 join in every
// join mode — the prefetch mode's batched walk over the shared partition
// table included — returns the serial join's 9815 rows at 1 and 4
// workers, and a second run repeats every point's cycle count.
func TestRunRepeatsParallelJoinModes(t *testing.T) {
	for _, mode := range []string{"auto", "chained", "partitioned", "prefetch"} {
		req := Request{Mode: ModeParallelDSS, Query: ParallelJoinQuery, Workers: 4, JoinMode: mode}
		first, err := sharedRunner.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := sharedRunner.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range first.Sweep {
			if s.Rows != 9815 || s.Digest != 0xaff77f624ca23930 {
				t.Errorf("%s x%d: %d rows, digest %#x; want 9815, 0xaff77f624ca23930", mode, s.Workers, s.Rows, s.Digest)
			}
			if s.Cycles != again.Sweep[i].Cycles {
				t.Errorf("%s x%d: cycles %d, then %d", mode, s.Workers, s.Cycles, again.Sweep[i].Cycles)
			}
		}
	}
}
