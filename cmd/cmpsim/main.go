// Command cmpsim runs one chip-multiprocessor simulation cell — a camp,
// workload, and configuration — and prints its execution-time breakdown,
// the unit of analysis throughout the paper. The executor-comparison
// modes (-vec, -share, -workers, -steps) are clients of the unified
// core.Request/core.Result API, the same surface cmd/dbserver exposes
// over HTTP; each side of a comparison is simulated once (-steps prints
// two comparisons, stream buffers on and off). -cpuprofile writes a pprof
// CPU profile of the whole run.
//
// Examples:
//
//	cmpsim -camp lc -workload oltp -clients 64 -l2mb 26
//	cmpsim -camp fc -workload dss -unsaturated -query 6
//	cmpsim -camp fc -workload oltp -smp -l2mb 4   # Figure 7's SMP node
//	cmpsim -camp fc -workload dss -workers 4 -query 1   # morsel-parallel Q1
//	cmpsim -camp fc -workload dss -clients 8 -share     # cross-query work sharing
//	cmpsim -camp fc -workload oltp -steps -cohort 16    # STEPS-style staged OLTP
//	cmpsim -camp fc -workload oltp -steps -parts 4      # partitioned staged OLTP
//	cmpsim -workload dss -vec -query 6 -cpuprofile q6.prof   # where the simulator's host time goes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// collected accumulates span runs across every unified-API invocation of
// this process (runSteps runs the request twice, once per instruction-
// delivery regime), for -trace-out.
var collected []obs.Run

// joinMetrics receives hash-join build observations (chain lengths,
// partition fan-out) from every traced DSS run of this process, backed
// by a private registry; printJoinStats renders it after joining runs.
var joinMetrics = obs.NewJoinMetrics(obs.NewRegistry())

// stopProfile flushes the -cpuprofile capture. Every exit goes through
// it — fail on the error paths, main on the others — because os.Exit
// runs no deferred calls.
var stopProfile = func() {}

// fail reports err and exits with code.
func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	stopProfile()
	os.Exit(code)
}

func main() {
	var opts cli.Options
	opts.RegisterSim(flag.CommandLine)
	flag.Parse()

	stop, err := opts.StartCPUProfile()
	if err != nil {
		fail(1, err)
	}
	stopProfile = stop
	defer stop()

	sc, err := opts.ScaleCfg()
	if err != nil {
		fail(2, err)
	}
	r := core.NewRunner(sc)
	r.Join = joinMetrics

	if mode, ok := opts.Mode(); ok {
		req, err := opts.Request()
		if err != nil {
			fail(2, err)
		}
		switch mode {
		case core.ModeStagedOLTP:
			runSteps(r, req)
		case core.ModeVecDSS:
			runVec(r, req)
		case core.ModeSharedDSS:
			runShare(r, req)
		case core.ModeParallelDSS:
			runParallel(r, req)
		}
		if opts.TraceOut != "" {
			if err := writeTrace(opts.TraceOut, collected); err != nil {
				fail(1, err)
			}
		}
		return
	}

	cell, err := opts.Cell()
	if err != nil {
		fail(2, err)
	}
	wk, _ := opts.WorkloadKind()
	fmt.Printf("cell: %v  (L2 hit latency %d cycles)\n", cell, cell.SimConfig().Hier.L2Lat)
	res, err := r.RunCell(cell)
	if err != nil {
		fail(1, err)
	}

	b := res.Result.Breakdown
	fmt.Printf("\ncycles measured:    %d\n", res.Result.Cycles)
	fmt.Printf("instructions:       %d\n", res.Result.Instructions)
	fmt.Printf("throughput (IPC):   %.3f\n", res.Throughput)
	if !cell.Saturated {
		fmt.Printf("response (cycles):  %.0f per %v unit\n", res.ResponseCycles, wk)
	}
	fmt.Printf("work completed:     %d\n", res.Work)
	fmt.Println("\nexecution time breakdown (busy core cycles):")
	rows := []struct {
		name string
		kind sim.StallKind
	}{
		{"computation", sim.KindComp},
		{"I-stall (L2 hit)", sim.KindIStallL2},
		{"I-stall (memory)", sim.KindIStallMem},
		{"D-stall (L2 hit)", sim.KindDStallL2},
		{"D-stall (memory)", sim.KindDStallMem},
		{"D-stall (coherence)", sim.KindDStallCoh},
		{"other (branch/sched)", sim.KindOther},
	}
	for _, row := range rows {
		fmt.Printf("  %-22s %6.1f%%\n", row.name, b.Frac(row.kind)*100)
	}
	st := res.Result.Cache
	fmt.Println("\nmemory system:")
	fmt.Printf("  L1D hit rate:      %.1f%%\n", pct(st.L1DHits, st.L1DHits+st.L1DMisses))
	fmt.Printf("  L1I hit rate:      %.1f%%\n", pct(st.L1IHits, st.L1IHits+st.L1IMisses))
	fmt.Printf("  L2 miss rate:      %.1f%%\n", st.L2MissRate()*100)
	fmt.Printf("  L1-to-L1 xfers:    %d\n", st.L1Transfers)
	fmt.Printf("  coherence xfers:   %d\n", st.CohTransfers)
	fmt.Printf("  port queue cycles: %d\n", st.PortQueueCycles)
}

// run executes one unified request, exiting on error: with 2, like every
// other unusable flag, when the flags describe a request that cannot run.
func run(r *core.Runner, req core.Request) core.Result {
	res, err := r.Run(context.Background(), req)
	var invalid *core.ValidationError
	if errors.As(err, &invalid) {
		fail(2, err)
	}
	if err != nil {
		fail(1, err)
	}
	collected = append(collected, res.Traces...)
	return res
}

// writeTrace exports the collected span runs as Chrome trace-event JSON.
func writeTrace(path string, runs []obs.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, runs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spans := 0
	for _, r := range runs {
		spans += len(r.Spans)
	}
	fmt.Printf("\nwrote %d spans across %d runs to %s (open in Perfetto / chrome://tracing)\n",
		spans, len(runs), path)
	return nil
}

// printStallMix prints one side's cycle-accounting mix: where its busy
// core cycles went, by the paper's stall taxonomy.
func printStallMix(indent string, s core.Side) {
	b := s.Result.Breakdown
	fmt.Printf("%scycle mix: %4.1f%% comp  %4.1f%% I-stall  %4.1f%% D-stall  %4.1f%% other  (%d idle cycles)\n",
		indent,
		b.Frac(sim.KindComp)*100,
		(b.Frac(sim.KindIStallL2)+b.Frac(sim.KindIStallMem))*100,
		(b.Frac(sim.KindDStallL2)+b.Frac(sim.KindDStallMem)+b.Frac(sim.KindDStallCoh))*100,
		b.Frac(sim.KindOther)*100, b.Idle())
	if st := s.Result.Cache; st.Prefetches > 0 {
		fmt.Printf("%sprefetch: %d issued, %d demand hits, %d caught in flight\n",
			indent, st.Prefetches, st.PrefetchHits, st.PrefetchLate)
	}
}

// printJoinStats prints the hash-join build internals collected across
// this process's traced runs — builds and partition fan-out by mode,
// plus the bucket-chain length distribution — and is a no-op when the
// run never built a join (Q1/Q6).
func printJoinStats() {
	h := joinMetrics.ChainLen
	if h.Count() == 0 {
		return
	}
	line := "  join builds:"
	for _, mode := range []string{"chained", "partitioned", "prefetch"} {
		if b := joinMetrics.Builds.With(mode).Value(); b > 0 {
			p := joinMetrics.Partitions.With(mode).Value()
			line += fmt.Sprintf("  %s x%d (fanout %.0f)", mode, b, float64(p)/float64(b))
		}
	}
	fmt.Println(line)
	fmt.Printf("  bucket chains: %d non-empty, mean length %.2f\n",
		h.Count(), h.Sum()/float64(h.Count()))
}

// runParallel measures one query on the morsel-driven executor at 1 and
// at N workers — on the same chip geometry, taken from the cell flags —
// printing cycles and the intra-query speedup.
func runParallel(r *core.Runner, req core.Request) {
	res := run(r, req)
	cell := req.Cell
	fmt.Printf("morsel-parallel q%d on %v (%d cores, %d MB L2):\n",
		req.Query, cell.Camp, max(cell.Cores, req.Workers), cell.L2Size>>20)
	for _, p := range res.Sweep {
		fmt.Printf("  %2d worker(s): %12d cycles  (%d rows, IPC %.3f)\n",
			p.Workers, p.Cycles, p.Rows, p.Result.IPC())
		printStallMix("    ", p)
	}
	fmt.Printf("  speedup %dw over 1w: %.2fx\n", res.Main.Workers, res.SpeedupX)
	printJoinStats()
}

// runVec measures one serial query on the row-at-a-time reference
// operators and on the vectorized executor, on identical chip geometry,
// printing cycles for both and the vectorized speedup.
func runVec(r *core.Runner, req core.Request) {
	res := run(r, req)
	cell := req.Cell
	fmt.Printf("vectorized executor, q%d on %v (%d cores, %d MB L2):\n",
		req.Query, cell.Camp, cell.Cores, cell.L2Size>>20)
	for _, s := range []core.Side{res.Baseline, res.Main} {
		mode := "row-at-a-time (Volcano)"
		if s.Label == "vectorized" {
			mode = "vectorized   (blocks) "
		}
		fmt.Printf("  %s %12d cycles  (%d rows, IPC %.3f, %d instr)\n",
			mode, s.Cycles, s.Rows, s.Result.IPC(), s.Result.Instructions)
		printStallMix("    ", s)
	}
	fmt.Printf("  vectorized speedup: %.2fx\n", res.SpeedupX)
	fmt.Printf("  result digests: row %#x == vectorized %#x\n", res.Baseline.Digest, res.Main.Digest)
	printJoinStats()
}

// runSteps measures the same deterministic transaction stream executed
// monolithically and cohort-scheduled (STEPS) on identical chip geometry
// and prints the paired comparison: the staged path must cut L1I misses
// and instruction stalls while producing byte-identical database state.
// With parts > 1 the request sweeps {1, parts} and prints the scaling
// against the single-worker cohort run.
func runSteps(r *core.Runner, req core.Request) {
	resolved := req.WithDefaults()
	fmt.Printf("staged OLTP (STEPS), %d clients x %d txns, cohort %d, on %v (%d cores, %d MB L2):\n",
		resolved.Clients, resolved.Txns, resolved.Cohort,
		req.Cell.Camp, req.Cell.Cores, req.Cell.L2Size>>20)

	// Two instruction-delivery regimes on otherwise identical geometry:
	// with stream buffers the synthetic sequential code walks prefetch
	// almost perfectly and the footprint win shows up in miss counts;
	// without them (real OLTP control flow is branchy, the paper's
	// I-stalls persist despite prefetching) it shows up in cycles too.
	for _, sb := range []bool{true, false} {
		cell := *req.Cell
		cell.StreamBuf = sb
		sreq := req
		sreq.Cell = &cell
		label := "stream buffers on "
		if !sb {
			label = "stream buffers off"
		}
		fmt.Printf("\n  [%s]\n", label)

		res := run(r, sreq)
		printStepsPair(res.Baseline, res.Sweep[0])
		if len(res.Sweep) > 1 {
			for i, s := range res.Sweep[1:] {
				fmt.Printf("  cohort x%d partitions          %10d cycles  %6d L1I misses  %5.1f%% istall  %7.2f txn/Mcycle  (%.2fx vs 1 part, %d fenced)\n",
					s.Parts, s.Cycles, s.Result.Cache.L1IMisses, s.IStallFrac()*100,
					s.PerMcycle(s.Txns), res.ScalingX[i+1], s.Fenced)
				for p, st := range s.PerPart {
					fmt.Printf("    part %d: %3d txns, %4d steps, %3d parks, %2d wounds\n",
						p, st.Committed, st.Steps, st.Parks, st.Wounds)
				}
			}
			fmt.Printf("  state digests: all runs == monolithic %#x\n", res.Baseline.Digest)
		} else {
			fmt.Printf("  L1I miss reduction: %.2fx   speedup: %.2fx\n", res.L1IMissReductionX, res.SpeedupX)
			fmt.Printf("  state digests: monolithic %#x == cohort %#x\n", res.Baseline.Digest, res.Main.Digest)
		}
		printSchedStats(res.Main)
	}
}

// printStepsPair prints the monolithic and single-worker cohort rows.
func printStepsPair(mono, coh core.Side) {
	for _, s := range []core.Side{mono, coh} {
		mode := "monolithic (per-txn code bodies)"
		if s.Label != "monolithic" {
			mode = "cohort     (shared stage segs) "
		}
		fmt.Printf("  %s %10d cycles  %6d L1I misses  %5.1f%% istall  %7.2f txn/Mcycle\n",
			mode, s.Cycles, s.Result.Cache.L1IMisses, s.IStallFrac()*100, s.PerMcycle(s.Txns))
		printStallMix("    ", s)
	}
}

// printSchedStats prints the cohort run's summed scheduler counters.
func printSchedStats(coh core.Side) {
	s := coh.Sched
	fmt.Printf("  scheduler: %d quanta, %d stage switches, %d steps, %d parks, %d wounds, %d deadlocks\n",
		s.Quanta, s.StageSwitches, s.Steps, s.Parks, s.Wounds, s.Deadlocks)
}

// runShare measures K concurrent DSS clients with and without the
// cross-query work-sharing subsystem on identical chip geometry and
// prints aggregate throughput for both, plus the sharing internals. The
// shared side is one draw from a run-to-run spread (where a client attaches
// to the circular scan depends on how far the host let the producers run
// ahead), so every line read off it starts with "~" instead of a space:
// `grep -v '^~'` leaves the lines that repeat byte for byte.
func runShare(r *core.Runner, req core.Request) {
	res := run(r, req)
	qname := fmt.Sprintf("q%d", req.Query)
	if req.Query == 0 {
		qname = "q1/q6/q13 mix"
	}
	clients := res.Request.Clients
	cell := req.Cell
	fmt.Printf("cross-query work sharing, %s, %d clients on %v (%d cores, %d MB L2):\n",
		qname, clients, cell.Camp, cell.Cores, cell.L2Size>>20)
	for _, s := range []core.Side{res.Baseline, res.Main} {
		lead, mode := " ", "unshared (private scans)"
		if s.Label == "shared" {
			lead, mode = "~", "shared   (circular scans)"
		}
		fmt.Printf("%s %s %12d cycles  %7.3f queries/Mcycle  (IPC %.3f, %d rows)\n",
			lead, mode, s.Cycles, s.PerMcycle(clients), s.Result.IPC(), s.Rows)
		printStallMix(lead+"   ", s)
	}
	sh := res.Main
	fmt.Printf("~ aggregate throughput gain: %.2fx\n", res.SpeedupX)
	fmt.Printf("~ sharing: %d attaches, %d rotations, %d producer runs, %d pages scanned, %d batches\n",
		sh.Scans.Attaches, sh.Scans.Rotations, sh.Scans.ProducerRuns, sh.Scans.PagesScanned, sh.Scans.Batches)
	fmt.Printf("~ result cache: %d hits, %d misses\n", sh.Reuse.Hits, sh.Reuse.Misses)
	fmt.Println("  (~ one draw from the shared side's run-to-run spread of a few percent)")
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
