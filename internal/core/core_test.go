package core

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// sharedRunner reuses one test-scale runner (and its loaded databases)
// across the package's tests.
var sharedRunner = NewRunner(TestScale())

func shortCell(camp sim.Camp, wk WorkloadKind, sat bool) Cell {
	c := DefaultCell(camp, wk, sat)
	c.WarmRefs = 60000
	c.WindowCycles = 120000
	c.UnsatTxns = 48
	return c
}

func TestTable1Camps(t *testing.T) {
	if len(Camps) != 2 {
		t.Fatalf("Table 1 has %d camps", len(Camps))
	}
	if Camps[0].Camp != sim.FatCamp || Camps[1].Camp != sim.LeanCamp {
		t.Fatal("camp order wrong")
	}
	for _, c := range Camps {
		if c.IssueWidth == "" || c.ExecOrder == "" || c.PipelineDepth == "" {
			t.Fatalf("incomplete camp spec %+v", c)
		}
	}
}

func TestDefaultCellParameters(t *testing.T) {
	c := DefaultCell(sim.FatCamp, OLTP, true)
	if c.Clients != 64 || c.L2Size != 26<<20 || !c.SharedL2 {
		t.Fatalf("OLTP saturated defaults: %+v", c)
	}
	if d := DefaultCell(sim.LeanCamp, DSS, true); d.Clients != 16 {
		t.Fatalf("DSS saturated clients = %d", d.Clients)
	}
	if u := DefaultCell(sim.FatCamp, DSS, false); u.Clients != 1 || u.Saturated {
		t.Fatalf("unsaturated defaults: %+v", u)
	}
}

func TestSimConfigUsesCactiLatency(t *testing.T) {
	c := DefaultCell(sim.FatCamp, OLTP, true)
	c.L2Size = 16 << 20
	cfg := c.SimConfig()
	if cfg.Hier.L2Lat < 10 || cfg.Hier.L2Lat > 20 {
		t.Fatalf("Cacti-derived 16MB latency = %d", cfg.Hier.L2Lat)
	}
	c.L2Lat = 4
	if got := c.SimConfig().Hier.L2Lat; got != 4 {
		t.Fatalf("pinned latency = %d", got)
	}
}

func TestRunSaturatedOLTPCell(t *testing.T) {
	res, err := sharedRunner.RunCell(shortCell(sim.FatCamp, OLTP, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.Result.Instructions == 0 || res.Result.Cycles == 0 {
		t.Fatal("empty measurement")
	}
	comp, _, dstall, _ := res.FracBreakdown()
	if comp <= 0 || comp > 1 || dstall < 0 {
		t.Fatalf("breakdown out of range: comp=%v d=%v", comp, dstall)
	}
	if res.Work == 0 {
		t.Fatal("no transactions completed")
	}
}

func TestRunUnsaturatedDSSCellCompletes(t *testing.T) {
	c := shortCell(sim.FatCamp, DSS, false)
	c.UnsatQuery = 6
	res, err := sharedRunner.RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseCycles <= 0 {
		t.Fatal("no response time")
	}
	if res.Work != 1 {
		t.Fatalf("work = %d, want 1 query", res.Work)
	}
}

// fig3Cell is Figure 3's cell: saturated row-plan DSS, one client per
// single-context LC core.
func fig3Cell() Cell {
	c := DefaultCell(sim.LeanCamp, DSS, true)
	c.CtxPerCore = 1
	c.Clients = 4
	c.RowPlans = true
	return c
}

// cellGoldens is the simulator's complete output for the characterization
// cells whose traces do not depend on the host: Figure 3's, shortCell's
// DSS cells and its unsaturated OLTP cells, at TestScale (the DSS and
// Figure 3 entries recorded at commit 9539db3). Work is pinned for the
// unsaturated cells only: a saturated cell counts the queries its clients
// finished before the window closed, and how far a client has run ahead
// of the simulator by then is up to the host. An unsaturated OLTP cell has
// one client on its own fork of the loaded database, so it repeats
// exactly; saturated OLTP cells are not pinned at all: their clients share
// one fork and its locks, and who waits for whom is up to the host.
var cellGoldens = []struct {
	name     string
	cell     Cell
	work     int // -1: not pinned
	response float64
	result   sim.Result
}{
	{"figure 3", fig3Cell(), -1, 0, sim.Result{
		Cycles: 0x61a80, Instructions: 0x1af580,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0xd8896, 0x0, 0x0, 0x269d8, 0x7f0bc, 0x0, 0x86d6, 0x0}},
		Cache: cache.Stats{L1DHits: 0x238d9, L1DMisses: 0x276d, L1IHits: 0x1da00,
			L2Hits: 0x2253, L2Misses: 0x51a, MemAccesses: 0x51a, PortQueueCycles: 0x2},
		ThreadDone: []uint64{0x0, 0x0, 0x0, 0x0}}},
	{"unsaturated DSS q6 FC", shortCell(sim.FatCamp, DSS, false), 1, 1.264375e+06, sim.Result{
		Cycles: 0x134af8, Instructions: 0x211a6,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x10a68, 0x0, 0x190, 0x628, 0x1209a4, 0x0, 0x2f32, 0x39e0ea}},
		Cache: cache.Stats{L1DHits: 0x8d7, L1DMisses: 0x3056, L1IHits: 0x1f24, L1IMisses: 0x1,
			L2Hits: 0x2b8, L2Misses: 0x2d9f, MemAccesses: 0x2d9f, Upgrades: 0x2, PortQueueCycles: 0x8b8},
		ThreadDone: []uint64{0x134af7}}},
	{"unsaturated DSS q6 LC", shortCell(sim.LeanCamp, DSS, false), 1, 4.743214e+06, sim.Result{
		Cycles: 0x48602f, Instructions: 0x211a6,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x1202e, 0x0, 0x190, 0x1c9f, 0x4717b3, 0x0, 0xa1d, 0xd9208f}},
		Cache: cache.Stats{L1DHits: 0x8d7, L1DMisses: 0x3056, L1IHits: 0x1f24, L1IMisses: 0x1,
			L2Hits: 0x2b8, L2Misses: 0x2d9f, MemAccesses: 0x2d9f, Upgrades: 0x2, PortQueueCycles: 0x76b},
		ThreadDone: []uint64{0x48602e}}},
	{"unsaturated OLTP FC", shortCell(sim.FatCamp, OLTP, false), 48, 28466.62920646813, sim.Result{
		Cycles: 0x8e7d, Instructions: 0x7d22,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x3eb9, 0x171, 0x0, 0x396, 0x3e98, 0x0, 0xc24, 0x1ab78}},
		Cache: cache.Stats{L1DHits: 0x29a, L1DMisses: 0xa4, L1IHits: 0x7cd, L1IMisses: 0x66, StreamBufHits: 0x52,
			L2Hits: 0x64, L2Misses: 0x54, MemAccesses: 0x54, Upgrades: 0xa, PortQueueCycles: 0x3},
		ThreadDone: []uint64{0x8e7c}}},
	{"unsaturated OLTP LC", shortCell(sim.LeanCamp, OLTP, false), 48, 29917.431479053506, sim.Result{
		Cycles: 0x95c0, Instructions: 0x7d22,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x3ec3, 0x176, 0x0, 0x4fe, 0x4dee, 0x0, 0x29a, 0x1c141}},
		Cache: cache.Stats{L1DHits: 0x29a, L1DMisses: 0xa4, L1IHits: 0x7cd, L1IMisses: 0x66, StreamBufHits: 0x52,
			L2Hits: 0x64, L2Misses: 0x54, MemAccesses: 0x54, Upgrades: 0xa, PortQueueCycles: 0x1},
		ThreadDone: []uint64{0x95bf}}},
	{"saturated DSS FC", shortCell(sim.FatCamp, DSS, true), -1, 0, sim.Result{
		Cycles: 0x1d4c0, Instructions: 0xa66b9,
		Breakdown: sim.Breakdown{Cycles: [8]uint64{0x53aaa, 0x0, 0x0, 0xc6e0, 0x6765, 0x0, 0xea11, 0x0}},
		Cache: cache.Stats{L1DHits: 0x1cd3e, L1DMisses: 0x501a, L1IHits: 0x9800,
			L2Hits: 0x4f03, L2Misses: 0x117, MemAccesses: 0x117, Upgrades: 0x17d, PortQueueCycles: 0x7b09c},
		ThreadDone: make([]uint64, 16)}},
}

// TestGoldenCellSimResults pins cellGoldens, twice over, so that the second
// pass simulates on whatever the first left behind.
func TestGoldenCellSimResults(t *testing.T) {
	for _, pass := range []string{"first pass", "second pass"} {
		for _, g := range cellGoldens {
			res, err := sharedRunner.RunCell(g.cell)
			if err != nil {
				t.Fatal(err)
			}
			if g.work >= 0 && res.Work != g.work {
				t.Errorf("%s, %s: work %d, golden %d", pass, g.name, res.Work, g.work)
			}
			if res.ResponseCycles != g.response {
				t.Errorf("%s, %s: response %v cycles, golden %v", pass, g.name, res.ResponseCycles, g.response)
			}
			if !reflect.DeepEqual(res.Result, g.result) {
				t.Errorf("%s, %s: sim.Result\n got    %+v\n golden %+v", pass, g.name, res.Result, g.result)
			}
		}
	}
}

func TestCampComparisonDirections(t *testing.T) {
	// The paper's headline directional results at reduced scale: LC wins
	// saturated throughput, FC wins unsaturated response time.
	fcSat, err := sharedRunner.RunCell(shortCell(sim.FatCamp, OLTP, true))
	if err != nil {
		t.Fatal(err)
	}
	lcSat, err := sharedRunner.RunCell(shortCell(sim.LeanCamp, OLTP, true))
	if err != nil {
		t.Fatal(err)
	}
	if lcSat.Throughput <= fcSat.Throughput {
		t.Errorf("saturated LC IPC %.2f not above FC %.2f", lcSat.Throughput, fcSat.Throughput)
	}
	fcU, err := sharedRunner.RunCell(shortCell(sim.FatCamp, OLTP, false))
	if err != nil {
		t.Fatal(err)
	}
	lcU, err := sharedRunner.RunCell(shortCell(sim.LeanCamp, OLTP, false))
	if err != nil {
		t.Fatal(err)
	}
	if lcU.ResponseCycles <= fcU.ResponseCycles {
		t.Errorf("unsaturated LC response %.0f not above FC %.0f",
			lcU.ResponseCycles, fcU.ResponseCycles)
	}
}

func TestFigure7CoherenceMechanism(t *testing.T) {
	res, err := sharedRunner.Figure7(OLTP)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoherenceCPISMP <= 0 {
		t.Error("SMP shows no coherence stalls on OLTP")
	}
	if cohCMP := res.CMP.Result.CPIComponent(sim.KindDStallCoh); cohCMP != 0 {
		t.Errorf("CMP shows coherence stalls: %v", cohCMP)
	}
	if res.CPICMP >= res.CPISMP {
		t.Errorf("CMP CPI %.3f not below SMP CPI %.3f", res.CPICMP, res.CPISMP)
	}
	if res.L2HitCPIRatio <= 1 {
		t.Errorf("L2-hit CPI ratio CMP/SMP = %.2f, want > 1", res.L2HitCPIRatio)
	}
}

func TestFigure2SaturationCurve(t *testing.T) {
	pts, err := sharedRunner.Figure2([]int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[1].Throughput <= pts[0].Throughput {
		t.Errorf("throughput not rising with clients: %v", pts)
	}
}

func TestFigure3ValidationAgreement(t *testing.T) {
	v, err := sharedRunner.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if v.Simulated.Total <= 0 || v.Analytic.Total <= 0 {
		t.Fatalf("degenerate CPI: %+v", v)
	}
	// The paper reports <5% between FLEXUS and hardware; our analytic
	// model is coarser — require agreement within 15%.
	if v.ErrPct > 15 {
		t.Errorf("simulated vs analytic CPI differ by %.1f%% (sim %.3f vs analytic %.3f)",
			v.ErrPct, v.Simulated.Total, v.Analytic.Total)
	}
}

func TestFigure6LatencyGap(t *testing.T) {
	pts, err := sharedRunner.Figure6(OLTP, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.ThroughputConst <= 0 || p.ThroughputReal <= 0 {
			t.Fatalf("empty point %+v", p)
		}
		if p.LatReal < p.LatConst {
			t.Fatalf("Cacti latency %d below const %d at %dMB", p.LatReal, p.LatConst, p.L2MB)
		}
	}
	if pts[1].ThroughputConst <= pts[0].ThroughputConst {
		t.Error("const-latency curve not rising with size")
	}
}

func TestFigure8ScalesClients(t *testing.T) {
	pts, err := sharedRunner.Figure8(OLTP, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Throughput <= pts[0].Throughput {
		t.Errorf("8 cores not faster than 4: %+v", pts)
	}
	if pts[0].Speedup < 3.9 || pts[0].Speedup > 4.1 {
		t.Errorf("baseline speedup = %v, want 4 (normalized per-core)", pts[0].Speedup)
	}
}

func TestStagedExperimentModes(t *testing.T) {
	res, err := sharedRunner.StagedExperiment(12000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d modes", len(res))
	}
	rows := res[0].Rows
	if rows == 0 {
		t.Fatal("volcano processed no rows")
	}
	for _, m := range res {
		if m.Cycles == 0 {
			t.Errorf("mode %s measured no cycles", m.Mode)
		}
		if m.Rows != rows {
			t.Errorf("mode %s rows=%d, volcano=%d (results disagree)", m.Mode, m.Rows, rows)
		}
	}
	// Parallel staging must beat single-threaded execution on wall-clock
	// (it uses three cores).
	var volcano, parallel uint64
	for _, m := range res {
		switch m.Mode {
		case "volcano":
			volcano = m.Cycles
		case "staged-parallel":
			parallel = m.Cycles
		}
	}
	if parallel >= volcano {
		t.Errorf("staged-parallel (%d cycles) not faster than volcano (%d)", parallel, volcano)
	}
	// The single-threaded modes repeat exactly (recorded at commit 9539db3);
	// the pool's workers hand packets to one another in host time, so the
	// two pool modes' cycles move by a few between runs and are not pinned.
	for _, g := range []StagedResult{
		{Mode: "volcano", Cycles: 2628842, Rows: 9033, L1DHitRate: 0.814020699673163},
		{Mode: "staged-affinity", Cycles: 1888312, Rows: 9033, L1DHitRate: 0.7815555692649372},
	} {
		for _, m := range res {
			if m.Mode == g.Mode && (m.Cycles != g.Cycles || m.Rows != g.Rows || m.L1DHitRate != g.L1DHitRate) {
				t.Errorf("%s: %d cycles, %d rows, L1D hit rate %v; golden %d, %d, %v",
					m.Mode, m.Cycles, m.Rows, m.L1DHitRate, g.Cycles, g.Rows, g.L1DHitRate)
			}
		}
	}
}

func TestHistoricDataset(t *testing.T) {
	if len(Historic) < 10 {
		t.Fatalf("historic dataset too small: %d", len(Historic))
	}
	prevYear := 0
	for _, h := range Historic {
		if h.Year < prevYear {
			t.Errorf("historic data out of order at %s", h.Processor)
		}
		prevYear = h.Year
		if h.CacheKB <= 0 {
			t.Errorf("%s has no cache size", h.Processor)
		}
	}
	// The paper's Figure 1 trend: ~3 orders of magnitude growth.
	if Historic[len(Historic)-1].CacheKB < 1000*Historic[0].CacheKB {
		t.Error("cache growth trend below 3 orders of magnitude")
	}
}

func TestCactiCurveMonotonic(t *testing.T) {
	pts, err := CactiCurve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cycles < pts[i-1].Cycles {
			t.Errorf("latency curve dips at %dKB", pts[i].SizeKB)
		}
	}
}

func TestCellString(t *testing.T) {
	c := DefaultCell(sim.FatCamp, OLTP, true)
	if s := c.String(); s == "" {
		t.Fatal("empty cell description")
	}
	c.SharedL2 = false
	if s := c.String(); s == "" || s == DefaultCell(sim.FatCamp, OLTP, true).String() {
		t.Fatal("SMP not reflected in description")
	}
}
