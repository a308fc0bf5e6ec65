package core

import (
	"context"
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

func TestRunParallelDSSCompletes(t *testing.T) {
	res, err := sharedRunner.RunParallelDSS(parCell(), 6, 2, 7)
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
	one, err := sharedRunner.RunParallelDSS(parCell(), ParallelJoinQuery, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	four, err := sharedRunner.RunParallelDSS(parCell(), ParallelJoinQuery, 4, 7)
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
	if _, err := sharedRunner.RunParallelDSS(parCell(), 6, 0, 7); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := sharedRunner.RunParallelDSS(parCell(), 16, 2, 7); err == nil {
		t.Fatal("query without a parallel variant accepted")
	}
}
