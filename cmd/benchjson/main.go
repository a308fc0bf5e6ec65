// Command benchjson writes the machine-readable performance trajectory
// of the executors to a JSON file: native rows/sec of the vectorized vs
// row-at-a-time scan path, simulated vectorized-over-row speedups for the
// scan (Q6), aggregate (Q1), and join (Q13) analogs, and the staged-OLTP
// comparison (monolithic vs STEPS-style cohort scheduling: L1I misses,
// instruction stalls, throughput) on a 4-core FC chip. The PR label and
// output file come from flags so every PR appends its own BENCH_<pr>.json
// artifact; CI archives the file so later PRs can diff performance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// toPoint converts one sweep measurement to its report form. The auto
// join mode is recorded as absence — only pinned modes are interesting.
func toPoint(n core.NativeRun) nativePoint {
	pt := nativePoint{
		Query: n.Query, Workers: n.Workers,
		Interpreted: n.Interpreted, Borrowed: n.Borrowed,
		RowsScanned: n.Rows, ElapsedSec: float64(n.Nanos) / 1e9,
		MedianSec: float64(n.MedianNanos) / 1e9, IQRSec: float64(n.IQRNanos) / 1e9,
		RowsPerSec:   n.RowsPerSec,
		BytesScanned: n.BytesScanned, GBPerSec: n.GBPerSec,
		ResultRows: n.ResultRows,
		Digest:     fmt.Sprintf("%016x", n.Digest),
	}
	if n.JoinMode != "" && n.JoinMode != "auto" {
		pt.JoinMode = n.JoinMode
	}
	return pt
}

// simEntry is one simulated vectorized-vs-row measurement.
type simEntry struct {
	Query       int         `json:"query"`
	RowCycles   uint64      `json:"row_cycles"`
	VecCycles   uint64      `json:"vec_cycles"`
	RowInstr    uint64      `json:"row_instructions"`
	VecInstr    uint64      `json:"vec_instructions"`
	SpeedupX    float64     `json:"speedup_x"`
	ResultRows  int         `json:"result_rows"`
	Description string      `json:"description"`
	RowStalls   core.Stalls `json:"row_stalls"`
	VecStalls   core.Stalls `json:"vec_stalls"`
}

// nativeEntry is one host-time scan-throughput measurement.
type nativeEntry struct {
	Path       string  `json:"path"`
	Rows       int     `json:"rows_scanned"`
	ElapsedSec float64 `json:"elapsed_sec"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// oltpSide is one executor of the staged-OLTP pair.
type oltpSide struct {
	Mode          string      `json:"mode"`
	Cycles        uint64      `json:"cycles"`
	Instructions  uint64      `json:"instructions"`
	L1IMisses     uint64      `json:"l1i_misses"`
	IStallFrac    float64     `json:"istall_frac"`
	Txns          int         `json:"txns"`
	TxnsPerMcycle float64     `json:"txns_per_mcycle"`
	Stalls        core.Stalls `json:"stalls"`
}

// oltpEntry is one paired staged-OLTP measurement (fixed chip geometry,
// identical transaction inputs, byte-identical final state).
type oltpEntry struct {
	StreamBuffers    bool     `json:"stream_buffers"`
	Monolithic       oltpSide `json:"monolithic"`
	Cohort           oltpSide `json:"cohort"`
	L1IMissReduction float64  `json:"l1i_miss_reduction_x"`
	SpeedupX         float64  `json:"speedup_x"`
	// DigestMatch is an invariant, not a measurement: a staged-oltp Run
	// fails (and no file is written) on any digest mismatch, so a report
	// that exists always records true here.
	DigestMatch bool `json:"digest_match"`
	Parks       int  `json:"parks"`
	Wounds      int  `json:"wounds"`
}

// oltpPartSide is one partition count of the partitioned staged-OLTP
// scaling sweep.
type oltpPartSide struct {
	Parts         int         `json:"parts"`
	Cycles        uint64      `json:"cycles"`
	L1IMisses     uint64      `json:"l1i_misses"`
	Parks         int         `json:"parks"`
	Wounds        int         `json:"wounds"`
	Fenced        int         `json:"fenced_txns"`
	TxnsPerMcycle float64     `json:"txns_per_mcycle"`
	ScalingX      float64     `json:"scaling_vs_1part_x"`
	Stalls        core.Stalls `json:"stalls"`
}

// oltpPartEntry is the partitioned staged-OLTP measurement: the cohort
// executor partitioned by home warehouse across N scheduler workers on a
// 4-warehouse mix, every run's digest byte-identical to the monolithic
// reference (the staged-oltp Run fails, and no file is written, otherwise —
// so DigestMatch records an invariant, like oltpEntry's).
type oltpPartEntry struct {
	Warehouses  int            `json:"warehouses"`
	Clients     int            `json:"clients"`
	PerClient   int            `json:"per_client"`
	RemotePct   int            `json:"remote_pct"`
	DigestMatch bool           `json:"digest_match"`
	Parts       []oltpPartSide `json:"parts"`
}

// nativePoint is one native fast-path sweep point: query Query at
// Workers morsel-parallel workers, wall-clock best of 50 (median and
// interquartile range record the spread). The leading interpreted point
// (compiled predicates, hash kernels, and selection vectors off) is the
// reference the 1-worker compiled_vs_interpreted_x ratio divides
// against; multi-worker points carry scaling_vs_1worker_x instead.
// Borrowed points alias buffer-pool pages (zero-copy) and carry
// borrow_vs_copy_x against the copying point at the same worker count.
type nativePoint struct {
	Query       int     `json:"query"`
	Workers     int     `json:"workers"`
	Interpreted bool    `json:"interpreted"`
	Borrowed    bool    `json:"borrowed"`
	RowsScanned int     `json:"rows_scanned"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	MedianSec   float64 `json:"median_sec"`
	IQRSec      float64 `json:"iqr_sec"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	// BytesScanned is base-table bytes per run (rows × row width);
	// GBPerSec the effective scan bandwidth at the best wall time.
	BytesScanned int     `json:"bytes_scanned"`
	GBPerSec     float64 `json:"gb_per_sec"`
	ResultRows   int     `json:"result_rows"`
	// Digest fingerprints the result rows: typed-value FNV for serial
	// points (byte-identical across interpreted/compiled/borrowed), a
	// row-count digest for multi-worker points whose float sums
	// reassociate.
	Digest    string  `json:"digest"`
	CompiledX float64 `json:"compiled_vs_interpreted_x,omitempty"`
	ScalingX  float64 `json:"scaling_vs_1worker_x,omitempty"`
	BorrowX   float64 `json:"borrow_vs_copy_x,omitempty"`
	// JoinMode is the hash-join strategy the point pinned (chained,
	// partitioned, prefetch); empty for non-join sweeps and the auto
	// policy.
	JoinMode string `json:"join_mode,omitempty"`
}

// joinModeSection is the Q13 join-mode comparison: one point per mode ×
// copy/borrow flavor at one worker, the borrowed-flavor speedups of the
// cache-conscious modes over the chained table, and the simulated
// D-stall (L2+mem) fraction of busy cycles per mode — the paper's
// stall-taxonomy view of what partitioning buys.
type joinModeSection struct {
	Query        int           `json:"query"`
	Points       []nativePoint `json:"points"`
	PartitionedX float64       `json:"partitioned_vs_chained_x"`
	PrefetchX    float64       `json:"prefetch_vs_chained_x"`
	// SimDStallFrac maps join mode to the simulated D-stall fraction;
	// SimStalls carries the full core.Stalls breakdown per mode.
	SimDStallFrac map[string]float64     `json:"sim_dstall_frac"`
	SimStalls     map[string]core.Stalls `json:"sim_stalls"`
}

// nativeSection is the native fast-path sweep: every query × worker
// count (copy and zero-copy flavors), plus the host CPU count that
// contextualizes the scaling ratios (a 1-CPU CI runner cannot express
// parallel speedup).
type nativeSection struct {
	HostCPUs     int           `json:"host_cpus"`
	WorkerCounts []int         `json:"worker_counts"`
	Points       []nativePoint `json:"points"`
}

// report is the file's schema. Version bumps when fields change meaning.
// v4 adds per-side cycle-accounting stalls breakdowns (core.Stalls).
// v5 adds the native fast-path sweep (compiled predicates + selection
// vectors vs interpreted, morsel-parallel worker scaling) and host_cpus.
// v6 adds the zero-copy (borrowed) flavor per sweep point, median/IQR of
// the 50 timed runs, and effective scan bandwidth (bytes_scanned,
// gb_per_sec).
// v7 adds join_mode on native points and the q13_join_modes section:
// per-join-mode Q13 points, partitioned/prefetch-vs-chained ratios, and
// the simulated D-stall fraction per mode.
type report struct {
	Version     int             `json:"version"`
	PR          string          `json:"pr"`
	Scale       string          `json:"scale"`
	NativeFast  nativeSection   `json:"native"`
	JoinModes   joinModeSection `json:"q13_join_modes"`
	Native      []nativeEntry   `json:"native_q6"`
	Simulated   []simEntry      `json:"simulated"`
	OLTP        []oltpEntry     `json:"oltp_staged"`
	Partitioned []oltpPartEntry `json:"oltp_partitioned"`
}

func main() {
	pr := flag.String("pr", "pr9-zerocopy", "PR label recorded in the report")
	out := flag.String("out", "", "output file (default BENCH_<pr prefix>.json)")
	flag.Parse()
	if *out == "" {
		prefix, _, _ := strings.Cut(*pr, "-")
		*out = "BENCH_" + prefix + ".json"
	}

	r := core.NewRunner(core.TestScale())
	bg := context.Background()
	rep := report{Version: 7, PR: *pr, Scale: "test"}

	// Native fast path: the compiled+selection sweep over every native
	// query at 1/2/4 workers, led by the interpreted reference, each
	// count measured copying and zero-copy (borrowed) side by side.
	rep.NativeFast = nativeSection{HostCPUs: runtime.NumCPU(), WorkerCounts: []int{1, 2, 4}}
	for _, q := range []int{1, 6, 13} {
		runs, err := r.RunNativeDSS(q, rep.NativeFast.WorkerCounts, 7, true)
		if err != nil {
			fatal(err)
		}
		var interp, w1 core.NativeRun
		copyAt := map[int]core.NativeRun{}
		for _, n := range runs {
			switch {
			case n.Interpreted:
				interp = n
			case !n.Borrowed:
				copyAt[n.Workers] = n
				if n.Workers == 1 {
					w1 = n
				}
			}
		}
		for _, n := range runs {
			pt := toPoint(n)
			if !n.Interpreted && n.Workers == 1 && interp.Nanos > 0 {
				pt.CompiledX = float64(interp.Nanos) / float64(n.Nanos)
			}
			if n.Workers > 1 && w1.Nanos > 0 {
				pt.ScalingX = float64(w1.Nanos) / float64(n.Nanos)
			}
			if n.Borrowed {
				if cp, ok := copyAt[n.Workers]; ok && cp.Nanos > 0 {
					pt.BorrowX = float64(cp.Nanos) / float64(n.Nanos)
				}
			}
			rep.NativeFast.Points = append(rep.NativeFast.Points, pt)
		}
	}

	// Q13 join modes: the three strategies measured side by side at one
	// worker (copy and borrowed flavors), plus the simulated stall
	// taxonomy per mode — digests are byte-identical across modes by the
	// golden suite, so these points differ only in how fast they arrive.
	jmModes := []engine.JoinMode{engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch}
	jmRuns, err := r.RunNativeDSS(13, []int{1}, 7, true, jmModes...)
	if err != nil {
		fatal(err)
	}
	rep.JoinModes = joinModeSection{
		Query:         13,
		SimDStallFrac: map[string]float64{},
		SimStalls:     map[string]core.Stalls{},
	}
	borrowed := map[string]core.NativeRun{}
	for _, n := range jmRuns[1:] {
		rep.JoinModes.Points = append(rep.JoinModes.Points, toPoint(n))
		if n.Borrowed {
			borrowed[n.JoinMode] = n
		}
	}
	if ch := borrowed["chained"]; ch.Nanos > 0 {
		if pa := borrowed["partitioned"]; pa.Nanos > 0 {
			rep.JoinModes.PartitionedX = float64(ch.Nanos) / float64(pa.Nanos)
		}
		if pf := borrowed["prefetch"]; pf.Nanos > 0 {
			rep.JoinModes.PrefetchX = float64(ch.Nanos) / float64(pf.Nanos)
		}
	}
	vecCell := core.DefaultModeCell(core.ModeVecDSS, sim.FatCamp)
	for _, m := range jmModes {
		res, err := r.RunVecDSS(vecCell, 13, true, 7, m)
		if err != nil {
			fatal(err)
		}
		s := core.StallsOf(res.Result)
		rep.JoinModes.SimStalls[m.String()] = s
		if s.Busy > 0 {
			rep.JoinModes.SimDStallFrac[m.String()] = float64(s.DStallL2+s.DStallMem) / float64(s.Busy)
		}
	}

	// Native: host-time Q6 on both executors (best of 3 runs each).
	h, err := r.TPCH()
	if err != nil {
		fatal(err)
	}
	ctx := h.DB.NewCtx(nil, 90, 96<<20)
	p := workload.RandomParams(rand.New(rand.NewSource(7)))
	for _, path := range []string{"row", "vectorized"} {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			ctx.Work.Reset()
			start := time.Now()
			run := h.RunQuery
			if path == "row" {
				run = h.RunQueryRow
			}
			if _, err := run(ctx, 6, p); err != nil {
				fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		rows := r.ScaleCfg.TPCH.Lineitems
		rep.Native = append(rep.Native, nativeEntry{
			Path: path, Rows: rows, ElapsedSec: best.Seconds(),
			RowsPerSec: float64(rows) / best.Seconds(),
		})
	}

	// Simulated: vectorized-over-row cycle speedups for scan/agg/join,
	// measured through the unified request API (the same path dbserver
	// serves).
	descs := map[int]string{6: "scan (Q6)", 1: "aggregate (Q1)", 13: "join (Q13)"}
	cell := core.DefaultCell(sim.FatCamp, core.DSS, true)
	cell.WarmRefs = 5000
	for _, q := range []int{6, 1, 13} {
		c := cell
		res, err := r.Run(bg, core.Request{Mode: core.ModeVecDSS, Query: q, Seed: 7, Cell: &c})
		if err != nil {
			fatal(err)
		}
		rep.Simulated = append(rep.Simulated, simEntry{
			Query:     q,
			RowCycles: res.Baseline.Cycles, VecCycles: res.Main.Cycles,
			RowInstr: res.Baseline.Result.Instructions, VecInstr: res.Main.Result.Instructions,
			SpeedupX: res.SpeedupX, ResultRows: res.Main.Rows,
			Description: descs[q],
			RowStalls:   res.Baseline.Stalls(), VecStalls: res.Main.Stalls(),
		})
	}

	// Staged OLTP: monolithic vs cohort-scheduled (STEPS) on identical
	// geometry, under both instruction-delivery regimes.
	oltpCell := core.DefaultCell(sim.FatCamp, core.OLTP, false)
	oltpCell.WarmRefs = 10000
	for _, sb := range []bool{true, false} {
		cell := oltpCell
		cell.StreamBuf = sb
		res, err := r.Run(bg, core.Request{Mode: core.ModeStagedOLTP, Cell: &cell})
		if err != nil {
			fatal(err)
		}
		side := func(s core.Side) oltpSide {
			mode := "monolithic"
			if s.Label != "monolithic" {
				mode = "cohort"
			}
			return oltpSide{
				Mode: mode, Cycles: s.Cycles, Instructions: s.Result.Instructions,
				L1IMisses: s.Result.Cache.L1IMisses, IStallFrac: s.IStallFrac(),
				Txns: s.Txns, TxnsPerMcycle: s.PerMcycle(s.Txns),
				Stalls: s.Stalls(),
			}
		}
		rep.OLTP = append(rep.OLTP, oltpEntry{
			StreamBuffers: sb, Monolithic: side(res.Baseline), Cohort: side(res.Main),
			L1IMissReduction: res.L1IMissReductionX, SpeedupX: res.SpeedupX,
			DigestMatch: res.Baseline.Digest == res.Main.Digest,
			Parks:       res.Main.Sched.Parks, Wounds: res.Main.Sched.Wounds,
		})
	}

	// Partitioned staged OLTP: the canonical sweep (the same cell the CI
	// gate BenchmarkStagedOLTPParallel measures), scaling anchored
	// against the single-worker cohort run.
	sweep := core.DefaultPartitionSweep()
	partRunner := core.NewRunner(sweep.Scale)
	partCell := sweep.Cell
	partRes, err := partRunner.Run(bg, core.Request{
		Mode: core.ModeStagedOLTP, Clients: sweep.Opts.Clients, Txns: sweep.Opts.PerClient,
		Cohort: sweep.Opts.Cohort, Seed: sweep.Opts.Seed, RemotePct: sweep.Opts.RemotePct,
		PartCounts: sweep.Parts, Cell: &partCell,
	})
	if err != nil {
		fatal(err)
	}
	pe := oltpPartEntry{
		Warehouses: sweep.Scale.TPCC.Warehouses, Clients: sweep.Opts.Clients,
		PerClient: sweep.Opts.PerClient, RemotePct: sweep.Opts.RemotePct, DigestMatch: true,
	}
	for i, run := range partRes.Sweep {
		pe.Parts = append(pe.Parts, oltpPartSide{
			Parts: run.Parts, Cycles: run.Cycles,
			L1IMisses: run.Result.Cache.L1IMisses,
			Parks:     run.Sched.Parks, Wounds: run.Sched.Wounds, Fenced: run.Fenced,
			TxnsPerMcycle: run.PerMcycle(run.Txns), ScalingX: partRes.ScalingX[i],
			Stalls: run.Stalls(),
		})
	}
	rep.Partitioned = append(rep.Partitioned, pe)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, p := range rep.NativeFast.Points {
		tag := "compiled"
		switch {
		case p.Interpreted:
			tag = "interpreted"
		case p.Borrowed:
			tag = "zero-copy"
		}
		extra := ""
		if p.CompiledX > 0 {
			extra = fmt.Sprintf("  %.2fx vs interpreted", p.CompiledX)
		}
		if p.ScalingX > 0 {
			extra = fmt.Sprintf("  %.2fx vs 1 worker", p.ScalingX)
		}
		if p.BorrowX > 0 {
			extra += fmt.Sprintf("  %.2fx vs copy", p.BorrowX)
		}
		fmt.Printf("  native q%-2d %-11s x%d %12.0f rows/sec %5.1f GB/s%s\n", p.Query, tag, p.Workers, p.RowsPerSec, p.GBPerSec, extra)
	}
	fmt.Printf("  q13 join modes: partitioned %.2fx, prefetch %.2fx vs chained (zero-copy)\n",
		rep.JoinModes.PartitionedX, rep.JoinModes.PrefetchX)
	for _, m := range []string{"chained", "partitioned", "prefetch"} {
		fmt.Printf("  q13 sim %-11s dstall frac %.4f\n", m, rep.JoinModes.SimDStallFrac[m])
	}
	for _, e := range rep.Simulated {
		fmt.Printf("  %-15s %6.2fx simulated speedup (%d -> %d cycles)\n", e.Description, e.SpeedupX, e.RowCycles, e.VecCycles)
	}
	for _, e := range rep.Native {
		fmt.Printf("  native q6 %-11s %12.0f rows/sec\n", e.Path, e.RowsPerSec)
	}
	for _, e := range rep.OLTP {
		sb := "sb-on "
		if !e.StreamBuffers {
			sb = "sb-off"
		}
		fmt.Printf("  oltp staged %s  %6.2fx fewer L1I misses, %5.2fx speedup, digests match=%v\n",
			sb, e.L1IMissReduction, e.SpeedupX, e.DigestMatch)
	}
	for _, e := range rep.Partitioned {
		for _, p := range e.Parts {
			fmt.Printf("  oltp partitioned x%d  %6.2fx vs 1 part (%d cycles, %d parks)\n",
				p.Parts, p.ScalingX, p.Cycles, p.Parks)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
