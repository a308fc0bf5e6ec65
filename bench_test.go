// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with -benchtime=1x for
// one measurement per target), plus ablation benches for the design
// choices DESIGN.md calls out. Custom metrics carry the reproduced
// quantities: IPC, LC/FC ratios, stall fractions.
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchRunner shares one test-scale workload pair across all benchmarks.
var (
	benchOnce   sync.Once
	benchShared *core.Runner
)

func runner() *core.Runner {
	benchOnce.Do(func() { benchShared = core.NewRunner(core.TestScale()) })
	return benchShared
}

func benchCell(camp sim.Camp, wk core.WorkloadKind, sat bool) core.Cell {
	c := core.DefaultCell(camp, wk, sat)
	c.WarmRefs = 100000
	c.WindowCycles = 150000
	c.UnsatTxns = 64
	return c
}

// mustServe runs one unified request on the shared runner.
func mustServe(b *testing.B, req core.Request) core.Result {
	b.Helper()
	res, err := runner().Run(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func mustRun(b *testing.B, c core.Cell) core.CellResult {
	b.Helper()
	res, err := runner().RunCell(c)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Camps measures chip construction for both camps (the
// taxonomy's two configurations).
func BenchmarkTable1Camps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range core.Camps {
			cell := core.DefaultCell(spec.Camp, core.OLTP, true)
			chip := sim.NewChip(cell.SimConfig())
			if chip.Config().Contexts() == 0 {
				b.Fatal("no contexts")
			}
		}
	}
}

// BenchmarkFigure1CactiSweep regenerates the size→latency curve.
func BenchmarkFigure1CactiSweep(b *testing.B) {
	var last int
	for i := 0; i < b.N; i++ {
		pts, err := core.CactiCurve()
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1].Cycles
	}
	b.ReportMetric(float64(last), "cycles@26MB")
	b.ReportMetric(float64(cacti.Latency(1<<20)), "cycles@1MB")
}

// BenchmarkFigure2Saturation regenerates the throughput-vs-clients curve.
func BenchmarkFigure2Saturation(b *testing.B) {
	var sat, unsat float64
	for i := 0; i < b.N; i++ {
		pts, err := runner().Figure2([]int{1, 16})
		if err != nil {
			b.Fatal(err)
		}
		unsat, sat = pts[0].Throughput, pts[1].Throughput
	}
	b.ReportMetric(sat/unsat, "sat/unsat")
}

// BenchmarkFigure3Validation regenerates the simulator-validation check.
func BenchmarkFigure3Validation(b *testing.B) {
	var errPct float64
	for i := 0; i < b.N; i++ {
		v, err := runner().Figure3()
		if err != nil {
			b.Fatal(err)
		}
		errPct = v.ErrPct
	}
	b.ReportMetric(errPct, "CPI-err-%")
}

// BenchmarkFigure4Camps regenerates the saturated camp comparison.
func BenchmarkFigure4Camps(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fc := mustRun(b, benchCell(sim.FatCamp, core.OLTP, true))
		lc := mustRun(b, benchCell(sim.LeanCamp, core.OLTP, true))
		ratio = lc.Throughput / fc.Throughput
	}
	b.ReportMetric(ratio, "LC/FC-throughput")
}

// BenchmarkFigure5Breakdown regenerates the saturated execution-time
// breakdowns for all four camp × workload combinations.
func BenchmarkFigure5Breakdown(b *testing.B) {
	var fcD float64
	for i := 0; i < b.N; i++ {
		for _, wk := range []core.WorkloadKind{core.OLTP, core.DSS} {
			for _, camp := range []sim.Camp{sim.FatCamp, sim.LeanCamp} {
				res := mustRun(b, benchCell(camp, wk, true))
				if camp == sim.FatCamp && wk == core.OLTP {
					_, _, d, _ := res.FracBreakdown()
					fcD = d
				}
			}
		}
	}
	b.ReportMetric(fcD*100, "FC-OLTP-Dstall-%")
}

// BenchmarkFigure6CacheSweep regenerates the cache-size sweep (three
// sizes, const vs Cacti latency).
func BenchmarkFigure6CacheSweep(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		pts, err := runner().Figure6(core.OLTP, []int{1, 8, 26})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		gap = (last.ThroughputConst - last.ThroughputReal) / last.ThroughputConst
	}
	b.ReportMetric(gap*100, "latency-penalty-%@26MB")
}

// BenchmarkFigure7SMPvsCMP regenerates the coherence comparison.
func BenchmarkFigure7SMPvsCMP(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := runner().Figure7(core.OLTP)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.CPISMP / res.CPICMP
	}
	b.ReportMetric(ratio, "SMP/CMP-CPI")
}

// BenchmarkFigure8CoreCount regenerates the core-count sweep.
func BenchmarkFigure8CoreCount(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		pts, err := runner().Figure8(core.OLTP, []int{4, 16})
		if err != nil {
			b.Fatal(err)
		}
		eff = pts[1].Speedup / 16
	}
	b.ReportMetric(eff*100, "16core-linear-%")
}

// BenchmarkStagedVsMonolithic regenerates the Section 6 staged-execution
// comparison.
func BenchmarkStagedVsMonolithic(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := runner().StagedExperiment(8000)
		if err != nil {
			b.Fatal(err)
		}
		var volcano, parallel uint64
		for _, m := range res {
			switch m.Mode {
			case "volcano":
				volcano = m.Cycles
			case "staged-parallel":
				parallel = m.Cycles
			}
		}
		speedup = float64(volcano) / float64(parallel)
	}
	b.ReportMetric(speedup, "staged-speedup")
}

// BenchmarkAblationPAX compares NSM and PAX layouts on a selective
// column scan: trace line-footprint per qualifying tuple.
func BenchmarkAblationPAX(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		lines := map[storage.Layout]int{}
		for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
			h, err := workload.BuildTPCH(workload.TPCHConfig{
				Lineitems: 20000, Layout: layout, ArenaBytes: 64 << 20,
			})
			if err != nil {
				b.Fatal(err)
			}
			rec, s := trace.Pipe()
			seen := map[mem.Addr]bool{}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					r, ok := s.Next()
					if !ok {
						return
					}
					if r.Kind() == trace.Load && r.Addr() >= mem.HeapBase {
						seen[r.Addr().Line()] = true
					}
				}
			}()
			ctx := h.DB.NewCtx(rec, 0, 64<<20)
			if _, err := h.RunQuery(ctx, 6, workload.QueryParams{Date: 2000, Discount: 0.05, Quantity: 30}); err != nil {
				b.Fatal(err)
			}
			rec.Close()
			<-done
			lines[layout] = len(seen)
		}
		ratio = float64(lines[storage.NSM]) / float64(lines[storage.PAXLayout])
	}
	b.ReportMetric(ratio, "NSM/PAX-lines")
}

// BenchmarkAblationStreamBuffer toggles instruction stream buffers.
func BenchmarkAblationStreamBuffer(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		on := benchCell(sim.FatCamp, core.OLTP, true)
		on.StreamBuf = true
		off := on
		off.StreamBuf = false
		rOn := mustRun(b, on)
		rOff := mustRun(b, off)
		iOn := rOn.Result.Breakdown.IStalls() + 1
		iOff := rOff.Result.Breakdown.IStalls() + 1
		ratio = float64(iOff) / float64(iOn)
	}
	b.ReportMetric(ratio, "Istall-reduction")
}

// BenchmarkAblationContexts sweeps LC hardware contexts per core.
func BenchmarkAblationContexts(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		var one, four float64
		for _, ctxs := range []int{1, 4} {
			c := benchCell(sim.LeanCamp, core.OLTP, true)
			c.CtxPerCore = ctxs
			res := mustRun(b, c)
			if ctxs == 1 {
				one = res.Throughput
			} else {
				four = res.Throughput
			}
		}
		gain = four / one
	}
	b.ReportMetric(gain, "4ctx/1ctx")
}

// BenchmarkAblationAffinity compares co-located vs spread stage placement.
func BenchmarkAblationAffinity(b *testing.B) {
	var hitGain float64
	for i := 0; i < b.N; i++ {
		res, err := runner().StagedExperiment(8000)
		if err != nil {
			b.Fatal(err)
		}
		var colocated, parallel float64
		for _, m := range res {
			switch m.Mode {
			case "staged-colocated":
				colocated = m.L1DHitRate
			case "staged-parallel":
				parallel = m.L1DHitRate
			}
		}
		hitGain = colocated - parallel
	}
	b.ReportMetric(hitGain*100, "L1Dhit-gain-pp")
}

// BenchmarkAblationPorts sweeps shared-L2 ports under a 16-core burst
// (the Figure 8 queueing mechanism).
func BenchmarkAblationPorts(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		var q1, q4 uint64
		for _, ports := range []int{1, 4} {
			c := benchCell(sim.FatCamp, core.OLTP, true)
			c.Cores = 16
			c.Clients = 64
			c.L2Ports = ports
			res := mustRun(b, c)
			if ports == 1 {
				q1 = res.Result.Cache.PortQueueCycles
			} else {
				q4 = res.Result.Cache.PortQueueCycles
			}
		}
		ratio = float64(q1+1) / float64(q4+1)
	}
	b.ReportMetric(ratio, "queue-1port/4port")
}

// parallelSpeedup measures one query on the morsel-driven executor at 1
// and 4 workers, returning simulated-cycle speedup (the host has however
// many cores it has; the chip always has four).
func parallelSpeedup(b *testing.B, q int) float64 {
	b.Helper()
	cell := core.DefaultCell(sim.FatCamp, core.DSS, true)
	// Leave the test-scale query observable past warming: vectorized
	// traces are short, and a 50k warm would consume a 4-worker run.
	cell.WarmRefs = 5000
	res := mustServe(b, core.Request{Mode: core.ModeParallelDSS, Query: q, Seed: 7, Workers: 4, WorkerCounts: []int{1, 4}, Cell: &cell})
	if res.Baseline.Rows == 0 {
		b.Fatal("parallel query produced no rows")
	}
	return res.SpeedupX
}

// BenchmarkParallelScan measures the morsel-driven executor on the
// selective-scan analog (Q6): 4 workers vs 1 on a 4-core FC chip.
func BenchmarkParallelScan(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = parallelSpeedup(b, 6)
	}
	b.ReportMetric(speedup, "scan-4w/1w-speedup")
}

// BenchmarkParallelAgg measures parallel aggregation with partial-table
// merge on the scan+aggregate analog (Q1).
func BenchmarkParallelAgg(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = parallelSpeedup(b, 1)
	}
	b.ReportMetric(speedup, "agg-4w/1w-speedup")
}

// BenchmarkParallelJoin measures the partitioned parallel hash join on
// the Q13 join core (customer left-outer-join non-special orders).
func BenchmarkParallelJoin(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = parallelSpeedup(b, core.ParallelJoinQuery)
	}
	b.ReportMetric(speedup, "join-4w/1w-speedup")
}

// BenchmarkSharedScan measures cross-query work sharing: concurrent
// clients run the selective-scan analog (Q6, private parameters each) on
// one simulated 4-core FC chip, unshared (private scans) versus shared
// (one circular shared scan + per-client filters). Since PR 3 both modes
// run on the vectorized executor, so the unshared baseline is ~5x faster
// than the old row-at-a-time scans and sharing's remaining edge — one
// decode pass plus store-free consumers — is modest when the table is
// cache-resident, as it is at this test scale (sharing's big win needs
// the table to exceed the L2: at full scale, 38 MB vs 26 MB, the same
// measurement gives ~1.3x at 4 clients). The smoke bar is therefore
// that sharing never loses (>= 1.05x at 4 clients); the vectorization
// gain itself is gated separately by BenchmarkVectorized.
func BenchmarkSharedScan(b *testing.B) {
	const clients = 4
	var res core.Result
	for i := 0; i < b.N; i++ {
		cell := core.DefaultCell(sim.FatCamp, core.DSS, true)
		cell.WarmRefs = 20000
		res = mustServe(b, core.Request{Mode: core.ModeSharedDSS, Query: 6, Clients: clients, Seed: 7, Cell: &cell})
		if res.Baseline.Rows == 0 || res.Main.Rows == 0 {
			b.Fatal("shared-scan benchmark produced no rows")
		}
		if res.SpeedupX < 1.05 {
			b.Fatalf("shared mode only %.2fx unshared aggregate throughput, acceptance bar is 1.05x (cycles %d vs %d)",
				res.SpeedupX, res.Baseline.Cycles, res.Main.Cycles)
		}
	}
	b.ReportMetric(res.SpeedupX, "shared/unshared-throughput-x")
	b.ReportMetric(res.Main.PerMcycle(clients), "shared-q/Mcycle")
	b.ReportMetric(res.Baseline.PerMcycle(clients), "unshared-q/Mcycle")
}

// vectorizedSpeedup measures one serial query on the row-at-a-time
// reference operators and on the vectorized executor, on the same
// simulated 4-core FC chip, returning cycles(row)/cycles(vectorized).
func vectorizedSpeedup(b *testing.B, q int) float64 {
	b.Helper()
	cell := core.DefaultCell(sim.FatCamp, core.DSS, true)
	cell.WarmRefs = 5000
	res := mustServe(b, core.Request{Mode: core.ModeVecDSS, Query: q, Seed: 7, Cell: &cell})
	if res.Baseline.Rows == 0 || res.Main.Rows == 0 {
		b.Fatal("vectorized benchmark produced no rows")
	}
	return res.SpeedupX
}

// BenchmarkVectorized gates the vectorized executor's payoff on the
// scan-dominated selective-scan analog (Q6): block-at-a-time execution
// must deliver >= 1.5x the row-at-a-time path's throughput on the
// simulated 4-core FC chip (the PR 3 acceptance bar; observed ~1.9x in
// cycles, ~12x in instructions — the cycle gain is smaller because both
// paths move the same page bytes through the cache hierarchy).
func BenchmarkVectorized(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = vectorizedSpeedup(b, 6)
		if speedup < 1.5 {
			b.Fatalf("vectorized Q6 only %.2fx the row-at-a-time path, acceptance bar is 1.5x", speedup)
		}
	}
	b.ReportMetric(speedup, "scan-vec/row-speedup")
}

// BenchmarkVectorizedAgg measures the vectorized speedup on the
// scan+aggregate analog (Q1).
func BenchmarkVectorizedAgg(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = vectorizedSpeedup(b, 1)
	}
	b.ReportMetric(speedup, "agg-vec/row-speedup")
}

// BenchmarkVectorizedJoin measures the vectorized speedup on the
// outer-join analog (Q13).
func BenchmarkVectorizedJoin(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = vectorizedSpeedup(b, 13)
	}
	b.ReportMetric(speedup, "join-vec/row-speedup")
}

// BenchmarkStagedOLTP gates the STEPS-style staged transaction executor:
// the same deterministic transaction stream runs monolithically (each
// transaction cycles through its type's 8-16 KB code body) and
// cohort-scheduled (stage cohorts through ~18 KB of shared stage
// segments) on identical chip geometry. The cohort path must cut
// simulated L1I misses by at least 5x (observed ~40-80x) and produce
// byte-identical database state — Run fails the request on any digest
// mismatch.
func BenchmarkStagedOLTP(b *testing.B) {
	var res core.Result
	for i := 0; i < b.N; i++ {
		cell := core.DefaultCell(sim.FatCamp, core.OLTP, false)
		cell.WarmRefs = 10000
		res = mustServe(b, core.Request{Mode: core.ModeStagedOLTP, Clients: 8, Txns: 6, Cohort: 16, Seed: 7, Cell: &cell})
		mono, coh := res.Baseline, res.Main
		if mono.Txns == 0 || coh.Txns != mono.Txns {
			b.Fatalf("work mismatch: %d monolithic vs %d cohort txns", mono.Txns, coh.Txns)
		}
		if res.L1IMissReductionX < 5 {
			b.Fatalf("cohort scheduling cut L1I misses only %.2fx (%d -> %d), acceptance bar is 5x",
				res.L1IMissReductionX, mono.Result.Cache.L1IMisses, coh.Result.Cache.L1IMisses)
		}
	}
	b.ReportMetric(res.L1IMissReductionX, "L1Imiss-mono/cohort-x")
	b.ReportMetric(res.SpeedupX, "cohort-speedup-x")
	b.ReportMetric(res.Baseline.IStallFrac()*100, "mono-istall-%")
	b.ReportMetric(res.Main.IStallFrac()*100, "cohort-istall-%")
}

// BenchmarkStagedOLTPParallel gates the partitioned staged-OLTP executor:
// the same deterministic 4-warehouse transaction stream runs on the
// cohort scheduler at 1, 2, and 4 partitions (one scheduler worker per
// simulated core, commits drained in global admission order through the
// cross-partition clock). Every digest must be byte-identical to the
// monolithic reference (Run fails the request otherwise),
// parts=2 must beat parts=1 on simulated cycles, and parts=4 must reach
// >= 2x (observed ~3x; the residual gap to 4x is partition imbalance in
// the multinomial warehouse draw).
func BenchmarkStagedOLTPParallel(b *testing.B) {
	sweep := core.DefaultPartitionSweep()
	r := core.NewRunner(sweep.Scale)
	var scaling []float64
	var runs []core.Side
	for i := 0; i < b.N; i++ {
		cell := sweep.Cell
		res, err := r.Run(context.Background(), core.Request{
			Mode: core.ModeStagedOLTP, Clients: sweep.Opts.Clients, Txns: sweep.Opts.PerClient,
			Cohort: sweep.Opts.Cohort, Seed: sweep.Opts.Seed, PartCounts: sweep.Parts, Cell: &cell,
		})
		if err != nil {
			b.Fatal(err)
		}
		runs, scaling = res.Sweep, res.ScalingX
		if scaling[1] <= 1.0 {
			b.Fatalf("parts=2 is %.2fx parts=1 (cycles %d vs %d); partitioning must not lose",
				scaling[1], runs[1].Cycles, runs[0].Cycles)
		}
		if scaling[2] < 2.0 {
			b.Fatalf("parts=4 only %.2fx parts=1 (cycles %d vs %d), acceptance bar is 2x",
				scaling[2], runs[2].Cycles, runs[0].Cycles)
		}
	}
	b.ReportMetric(scaling[1], "2part/1part-speedup")
	b.ReportMetric(scaling[2], "4part/1part-speedup")
	b.ReportMetric(runs[2].PerMcycle(runs[2].Txns), "4part-txn/Mcycle")
}

// BenchmarkSimCycleRate measures raw simulator speed (host ns per
// simulated cycle) on a saturated LC chip.
func BenchmarkSimCycleRate(b *testing.B) {
	c := benchCell(sim.LeanCamp, core.OLTP, true)
	c.WindowCycles = 100000
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, c)
		cycles += res.Result.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "host-ns/cycle")
}
