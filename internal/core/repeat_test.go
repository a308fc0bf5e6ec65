// Tests that license serving every traced DSS side from one simulation:
// cycles that repeat exactly, pinned simulator outputs, and workspaces
// that come back from the Runner's free list as good as new.

package core

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/sim"
)

// TestRunRepeats: vec-dss and parallel-dss simulate each side once
// because a second simulation returns the identical measurement. Every
// request of one kind must agree on both sides' cycles and on every field
// of the simulator's result: two runs for the serial pair, twenty for each
// parallel plan at four workers, whose morsel claims (aggregation over one
// pool; a join over a build and a probe pool with barriers between) are
// decided in simulated time and so must not depend on the host's scheduling.
func TestRunRepeats(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		runs int
	}{
		{Request{Mode: ModeVecDSS, Query: 6}, 2},
		{Request{Mode: ModeParallelDSS, Query: 1}, 2},
		{Request{Mode: ModeParallelDSS, Query: 6, Workers: 4}, 20},
		{Request{Mode: ModeParallelDSS, Query: ParallelJoinQuery, Workers: 4}, 20},
	} {
		first, err := sharedRunner.Run(context.Background(), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run < tc.runs; run++ {
			again, err := sharedRunner.Run(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name string
				a, b Side
			}{{"baseline", first.Baseline, again.Baseline}, {"main", first.Main, again.Main}} {
				if side.a.Cycles != side.b.Cycles {
					t.Errorf("%s q%d %s: cycles %d, in run %d %d", tc.req.Mode, tc.req.Query, side.name, side.a.Cycles, run, side.b.Cycles)
				}
				if !reflect.DeepEqual(side.a.Result, side.b.Result) {
					t.Errorf("%s q%d %s: sim.Result differs in run %d:\n%+v\n%+v", tc.req.Mode, tc.req.Query, side.name, run, side.a.Result, side.b.Result)
				}
			}
			if t.Failed() {
				break
			}
		}
	}
}

// vecGoldens is the simulator's complete output for both sides of vec-dss
// Q6 and Q13 at TestScale, seed 7, default cell. The values were recorded
// from the cycle-by-cycle simulator that preceded event skipping (commit
// 6faf8d7); a change that makes the simulator or the server faster must
// reproduce them to the last counter, and a change to the model itself
// must say so and re-record them.
var vecGoldens = []struct {
	query      int
	vectorized bool
	cycles     uint64
	digest     uint64
	result     sim.Result
}{
	{6, false, 9219179, 0xc5f3d9a449f88df2, sim.Result{
		Cycles: 0x8cac6c, Instructions: 0x5596bf,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x2acf20, 0x0, 0x0, 0x0, 0x597e32, 0x0, 0x85f18, 0x1a60546}},
		Cache: cache.Stats{L1DHits: 0x12640, L1DMisses: 0xb961, L1IHits: 0x58f43, L1IMisses: 0x0, StreamBufHits: 0x0,
			L2Hits: 0x0, L2Misses: 0xb961, MemAccesses: 0xb961, Upgrades: 0x0, PortQueueCycles: 0x0},
		ThreadDone: []uint64{0x8cac6b}}},
	{6, true, 4802021, 0xc5f3d9a449f88df2, sim.Result{
		Cycles: 0x4945e6, Instructions: 0x703eb,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x3867e, 0x0, 0x66a, 0xba0, 0x450dc8, 0x0, 0x9f94, 0xdbd1b4}},
		Cache: cache.Stats{L1DHits: 0x12aa, L1DMisses: 0xb559, L1IHits: 0x6754, L1IMisses: 0x34, StreamBufHits: 0x30,
			L2Hits: 0x517, L2Misses: 0xb046, MemAccesses: 0xb046, Upgrades: 0xa, PortQueueCycles: 0x145d},
		ThreadDone: []uint64{0x4945e5}}},
	{13, false, 3880967, 0xf7882720d4f5ce68, sim.Result{
		Cycles: 0x3b3808, Instructions: 0x34de62,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x1a7f9b, 0x0, 0x63f, 0x27f4d, 0x192601, 0x0, 0x50cde, 0xb1a81a}},
		Cache: cache.Stats{L1DHits: 0x1bc08, L1DMisses: 0xa16f, L1IHits: 0x3a20b, L1IMisses: 0x8, StreamBufHits: 0x4,
			L2Hits: 0x5f10, L2Misses: 0x4263, MemAccesses: 0x4263, Upgrades: 0x1449, PortQueueCycles: 0x191},
		ThreadDone: []uint64{0x3b3807}}},
	{13, true, 2294237, 0xf7882720d4f5ce68, sim.Result{
		Cycles: 0x2301de, Instructions: 0x1deabe,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0xf1a8f, 0x0, 0x9b5, 0x3b79d, 0xd6ddd, 0x0, 0x2b81e, 0x69059c}},
		Cache: cache.Stats{L1DHits: 0x1de54, L1DMisses: 0xdb1b, L1IHits: 0x21021, L1IMisses: 0x3a, StreamBufHits: 0x34,
			L2Hits: 0x9556, L2Misses: 0x45cb, MemAccesses: 0x45cb, Upgrades: 0x23d1, PortQueueCycles: 0xa9189},
		ThreadDone: []uint64{0x2301dd}}},
}

// checkVecGolden compares one simulated vec-dss side with its golden.
func checkVecGolden(t *testing.T, who string, query int, vectorized bool, cycles, digest uint64, result sim.Result) {
	t.Helper()
	for _, g := range vecGoldens {
		if g.query != query || g.vectorized != vectorized {
			continue
		}
		if cycles != g.cycles || digest != g.digest {
			t.Errorf("%s q%d vectorized=%v: cycles %d digest %#x, golden %d %#x",
				who, query, vectorized, cycles, digest, g.cycles, g.digest)
		}
		if !reflect.DeepEqual(result, g.result) {
			t.Errorf("%s q%d vectorized=%v: sim.Result\n got    %+v\n golden %+v", who, query, vectorized, result, g.result)
		}
		return
	}
	t.Errorf("%s: no golden for q%d vectorized=%v", who, query, vectorized)
}

// TestGoldenVecDSSSimResults pins vecGoldens on a Runner that has served
// requests before: every side after the first simulates on a workspace
// and a memory hierarchy an earlier one released.
func TestGoldenVecDSSSimResults(t *testing.T) {
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	for _, pass := range []string{"first pass", "on recycled hierarchies"} {
		for _, g := range vecGoldens {
			got, err := sharedRunner.RunVecDSS(cell, g.query, g.vectorized, 7)
			if err != nil {
				t.Fatal(err)
			}
			checkVecGolden(t, pass, g.query, g.vectorized, got.Cycles, got.Digest, got.Result)
		}
	}
}

// TestArenaReuseReadsZero: the workspace a run dirtied comes back from
// the free list with every byte zero, nothing allocated, and the base of
// the slot it is taken for.
func TestArenaReuseReadsZero(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	if _, err := r.RunVecDSS(cell, 13, true, 7); err != nil { // Q13 builds a hash table in its workspace
		t.Fatal(err)
	}
	if n := len(r.arenas.free[dssWorkBytes]); n != 1 {
		t.Fatalf("%d workspaces on the free list after one serial run, want 1", n)
	}
	parked := r.arenas.free[dssWorkBytes][0]
	if buf, _ := parked.Raw(); allZero(buf) {
		t.Fatal("the run left its workspace all zero: the test would prove nothing")
	}

	h, err := r.TPCH()
	if err != nil {
		t.Fatal(err)
	}
	ctx := r.workCtx(h.DB, nil, 3, dssWorkBytes)
	if ctx.Work != parked {
		t.Fatal("workCtx allocated while a workspace was parked")
	}
	buf, base := ctx.Work.Raw()
	if base != engine.WorkSlotBase(3, dssWorkBytes) || len(buf) != dssWorkBytes || ctx.Work.Used() != 0 {
		t.Fatalf("reused workspace: base %#x size %d used %d, want slot 3's base, %d, 0",
			uint64(base), len(buf), ctx.Work.Used(), dssWorkBytes)
	}
	if !allZero(buf) {
		t.Fatal("the reused workspace still holds bytes of the previous run")
	}
}

func allZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

// TestArenaReuseConcurrentCallers: three callers sharing one Runner —
// and so one free list — each get the digests and cycles a lone caller
// gets, for every traced DSS mode that draws workspaces from it. Run
// under -race this is also the free list's synchronization test.
func TestArenaReuseConcurrentCallers(t *testing.T) {
	reqs := []Request{
		{Mode: ModeVecDSS, Query: 13},
		{Mode: ModeParallelDSS, Query: 6},
		{Mode: ModeSharedDSS, Query: 6, Clients: 3},
	}
	r := NewRunner(TestScale())
	type outcome struct {
		baseCycles, mainCycles uint64
		baseDigest, mainDigest uint64
		rows                   int
	}
	observe := func(req Request) (outcome, error) {
		res, err := r.Run(context.Background(), req)
		o := outcome{res.Baseline.Cycles, res.Main.Cycles, res.Baseline.Digest, res.Main.Digest, res.Main.Rows}
		if req.Mode == ModeSharedDSS {
			// The shared side attaches wherever the live scan is: neither
			// its cycles nor its float low bits repeat, alone or not.
			o.mainCycles, o.mainDigest = 0, 0
		}
		return o, err
	}
	alone := make([]outcome, len(reqs))
	for i, req := range reqs {
		var err error
		if alone[i], err = observe(req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range reqs {
				i := (c + k) % len(reqs) // the callers overlap on different modes
				got, err := observe(reqs[i])
				if err != nil {
					t.Errorf("caller %d, %s: %v", c, reqs[i].Mode, err)
				} else if got != alone[i] {
					t.Errorf("caller %d, %s: %+v, alone %+v", c, reqs[i].Mode, got, alone[i])
				}
			}
		}(c)
	}
	wg.Wait()
	if n := len(r.arenas.free[dssWorkBytes]); n == 0 || n > maxFreeBytes/dssWorkBytes {
		t.Errorf("%d workspaces retained, want 1..%d", n, maxFreeBytes/dssWorkBytes)
	}
}
