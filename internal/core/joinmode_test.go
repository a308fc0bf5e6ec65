package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestQ13JoinModeTracedDigests: the traced (simulated) serial Q13 is
// digest-identical under all three join modes — partitioning and
// prefetch pipelining change the trace shape, never the rows — the
// prefetch mode's trace actually reaches the cache model as software
// prefetches, and the partitioned build/probe spends a strictly smaller
// share of its busy cycles in D-stalls (L2 + memory) than the chained
// table (0.4898 vs 0.5266; the counts are exact): the paper's
// mechanism on the simulated clock.
func TestQ13JoinModeTracedDigests(t *testing.T) {
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	results := map[engine.JoinMode]Side{}
	for _, m := range []engine.JoinMode{engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch} {
		res, err := sharedRunner.RunVecDSS(cell, 13, true, 7, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows == 0 {
			t.Fatalf("%v: empty result", m)
		}
		results[m] = res
	}
	ch := results[engine.JoinChained]
	for _, m := range []engine.JoinMode{engine.JoinPartitioned, engine.JoinPrefetch} {
		if r := results[m]; r.Digest != ch.Digest || r.Rows != ch.Rows {
			t.Errorf("%v digest %#x (%d rows) != chained %#x (%d rows)",
				m, r.Digest, r.Rows, ch.Digest, ch.Rows)
		}
	}
	if p, c := results[engine.JoinPrefetch].Result.Cache.Prefetches, ch.Result.Cache.Prefetches; p <= c {
		t.Errorf("prefetch mode issued %d software prefetches, chained %d — mode not reaching the cache model", p, c)
	}
	dstallFrac := func(r Side) float64 {
		s := StallsOf(r.Result)
		return float64(s.DStallL2+s.DStallMem) / float64(s.Busy)
	}
	if pa, c := dstallFrac(results[engine.JoinPartitioned]), dstallFrac(ch); pa >= c {
		t.Errorf("partitioned D-stall fraction %.4f not strictly below chained %.4f", pa, c)
	}
}

// TestPrefetchIsCycleFree: a trace.Prefetch record charges no issue
// slot, no instruction, and no stall on either camp — a compute trace
// with interleaved prefetches completes in exactly the cycles of the
// same trace without them, commits the same instruction count, and every
// prefetch reaches the hierarchy. (Result-digest neutrality of the
// prefetch join mode is TestQ13JoinModeTracedDigests above.)
func TestPrefetchIsCycleFree(t *testing.T) {
	const reps = 2000
	seg := mem.CodeSeg{Base: mem.CodeBase, Size: 256}
	run := func(camp sim.Camp, withPrefetch bool) sim.Result {
		chip := sim.NewChip(shortCell(camp, DSS, false).SimConfig())
		rec, s := trace.Pipe()
		chip.AddThread(s)
		go func() {
			for i := 0; i < reps; i++ {
				rec.Exec(seg, 64)
				if withPrefetch {
					rec.Prefetch(mem.HeapBase + mem.Addr(i)*4096)
				}
			}
			rec.Close()
		}()
		return chip.Run(1 << 24)
	}
	for _, camp := range []sim.Camp{sim.FatCamp, sim.LeanCamp} {
		plain := run(camp, false)
		pre := run(camp, true)
		if pre.ThreadDone[0] != plain.ThreadDone[0] {
			t.Errorf("%v: prefetched trace done at %d, plain at %d — prefetch is not cycle-free",
				camp, pre.ThreadDone[0], plain.ThreadDone[0])
		}
		if pre.Instructions != plain.Instructions {
			t.Errorf("%v: prefetched trace committed %d instructions, plain %d — prefetch counted as workload",
				camp, pre.Instructions, plain.Instructions)
		}
		if pre.Cache.Prefetches != reps {
			t.Errorf("%v: %d prefetches reached the hierarchy, want %d", camp, pre.Cache.Prefetches, reps)
		}
	}
}

// joinModeGoldens is the simulator's complete output for the traced Q13
// join under each pinned join mode at TestScale, seed 7, default cell:
// vec-dss's vectorized side (workers 0) and both points of a
// parallel-dss request over the Q13 join core (workers 1 and 4),
// recorded at commit 0ad1cd7. Auto resolves to partitioned at this
// scale, so vecGoldens and parGoldens pin the partitioned rows too; the
// chained and prefetch rows pin the traced walks no other golden reaches.
var joinModeGoldens = []struct {
	mode           engine.JoinMode
	workers        int
	cycles, digest uint64
	rows           int
	result         sim.Result
}{
	{engine.JoinChained, 0, 2291229, 0xf7882720d4f5ce68, 21, sim.Result{
		Cycles: 0x22f61e, Instructions: 0x1bc940,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0xdfdb2, 0x0, 0x696, 0x24279, 0x1026a7, 0x0, 0x288b4, 0x68e25c}},
		Cache: cache.Stats{L1DHits: 0x19863, L1DMisses: 0xd995, L1IHits: 0x1c30b, L1IMisses: 0x35, StreamBufHits: 0x31,
			L2Hits: 0x935e, L2Misses: 0x463b, MemAccesses: 0x463b, Upgrades: 0x1a2b, PortQueueCycles: 0xb5db8},
		ThreadDone: []uint64{0x22f61d}}},
	{engine.JoinPartitioned, 0, 2294237, 0xf7882720d4f5ce68, 21, sim.Result{
		Cycles: 0x2301de, Instructions: 0x1deabe,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0xf1a8f, 0x0, 0x9b5, 0x3b79d, 0xd6ddd, 0x0, 0x2b81e, 0x69059c}},
		Cache: cache.Stats{L1DHits: 0x1de54, L1DMisses: 0xdb1b, L1IHits: 0x21021, L1IMisses: 0x3a, StreamBufHits: 0x34,
			L2Hits: 0x9556, L2Misses: 0x45cb, MemAccesses: 0x45cb, Upgrades: 0x23d1, PortQueueCycles: 0xa9189},
		ThreadDone: []uint64{0x2301dd}}},
	{engine.JoinPrefetch, 0, 2272482, 0xf7882720d4f5ce68, 21, sim.Result{
		Cycles: 0x22ace3, Instructions: 0x1bc940,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0xdfbb6, 0x0, 0x695, 0x1fa2e, 0x1027b4, 0x0, 0x288b4, 0x6806ab}},
		Cache: cache.Stats{L1DHits: 0x1df9c, L1DMisses: 0x925c, L1IHits: 0x1c30b, L1IMisses: 0x35, StreamBufHits: 0x31,
			L2Hits: 0x4c25, L2Misses: 0x463b, MemAccesses: 0x463b, Upgrades: 0x194a, PortQueueCycles: 0x2ef90, Prefetches: 0x28cb, PrefetchHits: 0x27eb, PrefetchLate: 0xe0},
		ThreadDone: []uint64{0x22ace2}}},
	{engine.JoinChained, 1, 1037524, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0xfd4d5, Instructions: 0xc85fc,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x653dd, 0x0, 0x320, 0x359d9, 0x5040f, 0x0, 0x11fee, 0x2f7e81}},
		Cache: cache.Stats{L1DHits: 0xc1a0, L1DMisses: 0x84a7, L1IHits: 0xe864, L1IMisses: 0x5, StreamBufHits: 0x3,
			L2Hits: 0x6e8c, L2Misses: 0x161d, MemAccesses: 0x161d, Upgrades: 0x1380, PortQueueCycles: 0x7ab07},
		ThreadDone: []uint64{0xfd4d4}}},
	{engine.JoinChained, 4, 93713, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0x16e12, Instructions: 0x2609b,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x132df, 0x25, 0x0, 0xa92a, 0x13af, 0x0, 0x35a6, 0x392c5}},
		Cache: cache.Stats{L1DHits: 0x303a, L1DMisses: 0x1726, L1IHits: 0x2df3, L1IMisses: 0x3, StreamBufHits: 0x1,
			L2Hits: 0x14df, L2Misses: 0x249, L1Transfers: 0x238, MemAccesses: 0x249, Upgrades: 0x383, PortQueueCycles: 0x1908b},
		ThreadDone: []uint64{0x16e11, 0xb774, 0x0, 0x0}}},
	{engine.JoinPartitioned, 1, 1038659, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0xfd944, Instructions: 0xc86d0,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x65417, 0x0, 0x320, 0x35d6d, 0x504b0, 0x0, 0x11fee, 0x2f8bce}},
		Cache: cache.Stats{L1DHits: 0xc627, L1DMisses: 0x80f4, L1IHits: 0xe864, L1IMisses: 0x5, StreamBufHits: 0x3,
			L2Hits: 0x6ad8, L2Misses: 0x161e, MemAccesses: 0x161e, Upgrades: 0x132e, PortQueueCycles: 0x6f539},
		ThreadDone: []uint64{0xfd943}}},
	{engine.JoinPartitioned, 4, 94543, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0x17150, Instructions: 0x25c36,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x13053, 0x26, 0x0, 0xa4ea, 0x31f, 0x0, 0x3536, 0x3b788}},
		Cache: cache.Stats{L1DHits: 0x302b, L1DMisses: 0x16f0, L1IHits: 0x2db1, L1IMisses: 0x3, StreamBufHits: 0x1,
			L2Hits: 0x14dc, L2Misses: 0x216, L1Transfers: 0x21d, MemAccesses: 0x216, Upgrades: 0x36b, PortQueueCycles: 0x19942},
		ThreadDone: []uint64{0x1714f, 0x9c6a, 0x0, 0x0}}},
	{engine.JoinPrefetch, 1, 955580, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0xe94bd, Instructions: 0xc85fc,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x64d9c, 0x0, 0x320, 0x21fff, 0x50413, 0x0, 0x11fee, 0x2bbe38}},
		Cache: cache.Stats{L1DHits: 0xfa9b, L1DMisses: 0x4bac, L1IHits: 0xe864, L1IMisses: 0x5, StreamBufHits: 0x3,
			L2Hits: 0x3591, L2Misses: 0x161d, MemAccesses: 0x161d, Upgrades: 0x1380, PortQueueCycles: 0x63804, Prefetches: 0x3429, PrefetchHits: 0x2ead, PrefetchLate: 0x57c},
		ThreadDone: []uint64{0xe94bc}}},
	{engine.JoinPrefetch, 4, 93165, 0xaff77f624ca23930, 9815, sim.Result{
		Cycles: 0x16bee, Instructions: 0x21b88,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x10e3b, 0x25, 0x0, 0x39e5, 0x0, 0x0, 0x3058, 0x4371b}},
		Cache: cache.Stats{L1DHits: 0x2da6, L1DMisses: 0x9bb, L1IHits: 0x2a1c, L1IMisses: 0x3, StreamBufHits: 0x1,
			L2Hits: 0x8c1, L2Misses: 0xfc, MemAccesses: 0xfc, Upgrades: 0x350, PortQueueCycles: 0xe89a, Prefetches: 0x152, PrefetchHits: 0xe3, PrefetchLate: 0x6f},
		ThreadDone: []uint64{0x16bed, 0xaf3, 0x1bf, 0x0}}},
}

// TestGoldenJoinModeSimResults pins joinModeGoldens: every sim.Result
// field of the traced serial and parallel Q13 join in chained,
// partitioned and prefetch mode.
func TestGoldenJoinModeSimResults(t *testing.T) {
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	check := func(mode engine.JoinMode, workers int, cycles, digest uint64, rows int, result sim.Result) {
		t.Helper()
		for _, g := range joinModeGoldens {
			if g.mode != mode || g.workers != workers {
				continue
			}
			if cycles != g.cycles || digest != g.digest || rows != g.rows {
				t.Errorf("%v x%d: cycles %d digest %#x rows %d, golden %d %#x %d",
					mode, workers, cycles, digest, rows, g.cycles, g.digest, g.rows)
			}
			if !reflect.DeepEqual(result, g.result) {
				t.Errorf("%v x%d: sim.Result\n got    %+v\n golden %+v", mode, workers, result, g.result)
			}
			return
		}
		t.Errorf("no golden for %v x%d", mode, workers)
	}
	for _, m := range []engine.JoinMode{engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch} {
		s, err := sharedRunner.RunVecDSS(cell, 13, true, 7, m)
		if err != nil {
			t.Fatal(err)
		}
		check(m, 0, s.Cycles, s.Digest, s.Rows, s.Result)
		res, err := sharedRunner.Run(context.Background(), Request{Mode: ModeParallelDSS, Query: ParallelJoinQuery, Workers: 4, JoinMode: m.String()})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Sweep {
			check(m, p.Workers, p.Cycles, p.Digest, p.Rows, p.Result)
		}
	}
}
