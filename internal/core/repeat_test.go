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
// Q1, Q6 and Q13 at TestScale, seed 7, default cell. The Q6 and Q13 values
// were recorded from the cycle-by-cycle simulator that preceded event
// skipping (commit 6faf8d7), the Q1 values at commit 48abeb9, before the
// plans were written once and lowered per executor; a change that makes
// the simulator, the server or the plans faster must reproduce them to the
// last counter, and a change to the model itself must say so and re-record
// them.
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
	{1, false, 11371461, 0xf6b6e60498a61de5, sim.Result{
		Cycles: 0xad83c6, Instructions: 0x815f10,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x40bac3, 0x0, 0x190, 0x0, 0x60fdbb, 0x0, 0xbc9b6, 0x2088b54}},
		Cache: cache.Stats{L1DHits: 0xac2fb, L1DMisses: 0xba9b, L1IHits: 0x8e4c8, L1IMisses: 0x1,
			L2Misses: 0xba9c, MemAccesses: 0xba9c},
		ThreadDone: []uint64{0xad83c5}}},
	{1, true, 7158360, 0xf6b6e60498a61de5, sim.Result{
		Cycles: 0x6d3a59, Instructions: 0x3dc0a0,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x1ee508, 0x0, 0x325, 0x2174, 0x493d0e, 0x0, 0x4f3a8, 0x147af0d}},
		Cache: cache.Stats{L1DHits: 0xb17e3, L1DMisses: 0x123d2, L1IHits: 0x38726, L1IMisses: 0x3, StreamBufHits: 0x1,
			L2Hits: 0x6a77, L2Misses: 0xb95d, MemAccesses: 0xb95d, Upgrades: 0x443, PortQueueCycles: 0x12dc50},
		ThreadDone: []uint64{0x6d3a58}}},
}

// parGoldens is the simulator's complete output for both points of a
// parallel-dss request (WorkerCounts {1, 4}) for Q1, Q6 and the Q13 join
// core at TestScale, seed 7, default cell, recorded at commit 48abeb9.
// Parallel digests fingerprint the row count.
var parGoldens = []struct {
	query, workers int
	cycles, digest uint64
	rows           int
	result         sim.Result
}{
	{1, 1, 6841985, 0x6ad26a20123ba583, 6, sim.Result{
		Cycles: 0x686682, Instructions: 0x3b3083,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x1d9c39, 0x0, 0x190, 0x1f4e, 0x45e999, 0x0, 0x4bfd0, 0x1393388}},
		Cache: cache.Stats{L1DHits: 0xa9b5e, L1DMisses: 0x116c8, L1IHits: 0x361c5, L1IMisses: 0x1,
			L2Hits: 0x65cb, L2Misses: 0xb0fe, MemAccesses: 0xb0fe, Upgrades: 0x433, PortQueueCycles: 0x12361f},
		ThreadDone: []uint64{0x686681}}},
	{1, 4, 1478823, 0x6ad26a20123ba583, 6, sim.Result{
		Cycles: 0x1690a8, Instructions: 0x31e45f,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x18f946, 0x0, 0x190, 0x1bc3, 0x3aa473, 0x0, 0x3fea8, 0x288ec}},
		Cache: cache.Stats{L1DHits: 0x906c8, L1DMisses: 0xea0d, L1IHits: 0x2d9a5, L1IMisses: 0x1,
			L2Hits: 0x5583, L2Misses: 0x948b, L1Transfers: 0x2d, MemAccesses: 0x948b, Upgrades: 0x3a0, PortQueueCycles: 0x117cb4},
		ThreadDone: []uint64{0x169075, 0x168fa0, 0x1690a7, 0x1408fb}}},
	{6, 1, 2019975, 0x89cd31291d2aefa4, 1, sim.Result{
		Cycles: 0x1ed288, Instructions: 0x2f75d,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x17d46, 0x0, 0x0, 0x50d, 0x1d0cb7, 0x0, 0x437c, 0x5c779a}},
		Cache: cache.Stats{L1DHits: 0x88d, L1DMisses: 0x4bc9, L1IHits: 0x2bd2,
			L2Hits: 0x253, L2Misses: 0x4976, MemAccesses: 0x4976, Upgrades: 0x4a, PortQueueCycles: 0x308},
		ThreadDone: []uint64{0x1ed287}}},
	{6, 4, 193024, 0x89cd31291d2aefa4, 1, sim.Result{
		Cycles: 0x2f201, Instructions: 0x477c,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x23dc, 0x0, 0x0, 0x7a, 0x2c751, 0x0, 0x658, 0x8d605}},
		Cache: cache.Stats{L1DHits: 0xb6, L1DMisses: 0x736, L1IHits: 0x41e,
			L2Hits: 0x32, L2Misses: 0x704, L1Transfers: 0x1, MemAccesses: 0x704, Upgrades: 0x1, PortQueueCycles: 0x3c},
		ThreadDone: []uint64{0x2f200, 0x0, 0x0, 0x0}}},
	{13, 1, 1118906, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0x1112bb, Instructions: 0x118d71,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x8d4ee, 0x0, 0x323, 0x21fb2, 0x47a4c, 0x0, 0x1a0aa, 0x333833}},
		Cache: cache.Stats{L1DHits: 0xa173, L1DMisses: 0xa4de, L1IHits: 0x1173f, L1IMisses: 0xb, StreamBufHits: 0x9,
			L2Hits: 0x748f, L2Misses: 0x3051, MemAccesses: 0x3051, Upgrades: 0x163b, PortQueueCycles: 0x43ef},
		ThreadDone: []uint64{0x1112ba}}},
	{13, 4, 185396, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0x2d435, Instructions: 0x5058e,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x2884c, 0x14, 0x0, 0x127dc, 0x13870, 0x0, 0x7540, 0x5f2e8}},
		Cache: cache.Stats{L1DHits: 0x31a6, L1DMisses: 0x3ef4, L1IHits: 0x4f53, L1IMisses: 0x3, StreamBufHits: 0x2,
			L2Hits: 0x3c0f, L2Misses: 0x2e6, L1Transfers: 0x4f6, MemAccesses: 0x2e6, Upgrades: 0x2e5, PortQueueCycles: 0x79d},
		ThreadDone: []uint64{0x289ba, 0x2d434, 0x0, 0x0}}},
}

// TestGoldenParallelDSSSimResults pins parGoldens: both points of each
// query's parallel-dss request, every sim.Result field.
func TestGoldenParallelDSSSimResults(t *testing.T) {
	for _, q := range []int{1, 6, ParallelJoinQuery} {
		res, err := sharedRunner.Run(context.Background(), Request{Mode: ModeParallelDSS, Query: q, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Sweep {
			found := false
			for _, g := range parGoldens {
				if g.query != q || g.workers != s.Workers {
					continue
				}
				found = true
				if s.Cycles != g.cycles || s.Digest != g.digest || s.Rows != g.rows {
					t.Errorf("q%d x%d: cycles %d digest %#x rows %d, golden %d %#x %d",
						q, s.Workers, s.Cycles, s.Digest, s.Rows, g.cycles, g.digest, g.rows)
				}
				if !reflect.DeepEqual(s.Result, g.result) {
					t.Errorf("q%d x%d: sim.Result\n got    %+v\n golden %+v", q, s.Workers, s.Result, g.result)
				}
			}
			if !found {
				t.Errorf("no golden for q%d x%d", q, s.Workers)
			}
		}
	}
}

// TestGoldenSharedMixUnshared pins the unshared side of a 3-client
// shared-dss mix (Q1, Q6, Q13 on one chip at staggered phases): every
// client is self-paced, so its cycles, digest and every sim.Result field
// repeat (TestArenaReuseConcurrentCallers), recorded at commit 48abeb9.
// The shared side attaches wherever the live scan is and is not pinned.
func TestGoldenSharedMixUnshared(t *testing.T) {
	res, err := sharedRunner.Run(context.Background(), Request{Mode: ModeSharedDSS, Query: 0, Clients: 3})
	if err != nil {
		t.Fatal(err)
	}
	golden := sim.Result{
		Cycles: 0x2f784f, Instructions: 0x5e60ab,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x2f73ea, 0x135, 0x4b1, 0x6f33c, 0x403328, 0x0, 0x7e95a, 0x3f57ae}},
		Cache: cache.Stats{L1DHits: 0xcc572, L1DMisses: 0x27cf4, L1IHits: 0x5bc89, L1IMisses: 0x71, StreamBufHits: 0x65,
			L2Hits: 0x1bc6f, L2Misses: 0xc091, MemAccesses: 0xc091, Upgrades: 0x2804, PortQueueCycles: 0x1ebe94},
		ThreadDone: []uint64{0x2f6e3a, 0x2f784e, 0x1fa309}}
	un := res.Baseline
	if un.Label != "unshared" || un.Cycles != 3110990 || un.Digest != 0xa684d538093f1c2f || un.Rows != 28 {
		t.Errorf("%s: cycles %d digest %#x rows %d, golden 3110990 0xa684d538093f1c2f 28", un.Label, un.Cycles, un.Digest, un.Rows)
	}
	if !reflect.DeepEqual(un.Result, golden) {
		t.Errorf("unshared sim.Result\n got    %+v\n golden %+v", un.Result, golden)
	}
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
