package core

import (
	"testing"

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
