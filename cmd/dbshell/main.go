// Command dbshell exercises the database engine natively (no simulation):
// it loads the TPC-C-like and TPC-H-like databases, runs transactions and
// the four query analogs, and prints results — demonstrating that the
// engine underneath the characterization is a real, correct engine.
//
// -workers N runs the planned analogs (Q1, Q6, Q13) natively on N worker
// contexts (order-preserving morsel exchanges: the serial plan's rows);
// -share routes queries through the cross-query
// work-sharing subsystem (circular shared scans + result reuse) and, with
// -clients K, compares shared against unshared multi-client throughput.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oltp"
	"repro/internal/workload"
)

func main() {
	var opts cli.Options
	opts.RegisterNative(flag.CommandLine)
	flag.Parse()

	if err := dispatch(&opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dispatch routes the mode flags, bracketing the whole run with a CPU
// profile when -cpuprofile is given (deferred so the profile is flushed
// on error paths too).
func dispatch(opts *cli.Options) error {
	stop, err := opts.StartCPUProfile()
	if err != nil {
		return err
	}
	defer stop()
	counts, err := opts.NativeWorkerCounts()
	if err != nil {
		return err
	}
	if len(counts) > 0 {
		return runNative(opts.Lineitems, counts, opts.JoinMode)
	}
	if opts.Steps {
		return runSteps(opts.Txns, opts.Cohort, opts.Parts, opts.Remote)
	}
	return run(opts.Txns, opts.Lineitems, opts.Workers, opts.Share, opts.Clients, opts.Row)
}

// runNative sweeps the trace-free fast path over Q1/Q6/Q13: the
// interpreted 1-worker reference first, then compiled predicates +
// selection vectors over borrowed pages at each requested worker count.
// joinMode pins Q13's hash-join strategy; empty means auto.
func runNative(lineitems int, counts []int, joinMode string) error {
	jm, err := engine.ParseJoinMode(joinMode)
	if err != nil {
		return err
	}
	fmt.Println("== Native fast path: compiled predicates + selection vectors ==")
	scale := core.FullScale()
	scale.TPCH = workload.TPCHConfig{Lineitems: lineitems, ArenaBytes: 256 << 20}
	r := core.NewRunner(scale)

	start := time.Now()
	if _, err := r.TPCH(); err != nil {
		return err
	}
	fmt.Printf("loaded %d lineitem rows in %s\n", lineitems, time.Since(start).Truncate(time.Millisecond))

	for _, q := range workload.Planned() {
		runs, err := r.RunNativeDSS(q, counts, 7, jm)
		if err != nil {
			return err
		}
		fmt.Println()
		// Baselines for the ratio columns: the interpreted reference and
		// the 1-worker compiled point.
		var ref, w1 core.NativeRun
		for _, n := range runs {
			label := "compiled   "
			switch {
			case n.Interpreted:
				ref, label = n, "interpreted"
			case n.Workers == 1:
				w1 = n
			}
			line := fmt.Sprintf("Q%-2d %s x%d: %6.1fM rows/s %5.1f GB/s (%d result rows, best of 50, median %s iqr %s)",
				q, label, n.Workers, n.RowsPerSec/1e6, n.GBPerSec, n.ResultRows,
				time.Duration(n.MedianNanos).Truncate(time.Microsecond),
				time.Duration(n.IQRNanos).Truncate(time.Microsecond))
			if !n.Interpreted && n.Workers == 1 && ref.Nanos > 0 {
				line += fmt.Sprintf("  %.2fx vs interpreted", float64(ref.Nanos)/float64(n.Nanos))
			}
			if n.Workers > 1 && w1.Nanos > 0 {
				line += fmt.Sprintf("  %.2fx vs x1", float64(w1.Nanos)/float64(n.Nanos))
			}
			fmt.Println(line)
		}
	}
	return nil
}

// runSteps executes the same deterministic transaction stream on fresh
// databases — monolithically, cohort-scheduled, and (with parts > 1)
// partitioned across native scheduler workers — and reports native
// throughput, scheduler behaviour, and the state-digest matches.
func runSteps(total, cohort, parts, remotePct int) error {
	fmt.Println("== Staged OLTP (STEPS): monolithic vs cohort-scheduled ==")
	cfg := workload.TPCCConfig{Warehouses: 4, Items: 5000, CustPerDis: 200, ArenaBytes: 128 << 20}
	clients := 16
	per := total / clients
	if per < 1 {
		per = 1
	}

	build := func() (*workload.TPCC, []workload.TxnInput, error) {
		w, err := workload.BuildTPCC(cfg)
		if err != nil {
			return nil, nil, err
		}
		return w, w.StagedInputsMix(clients, per, 7, remotePct), nil
	}

	mono, ins, err := build()
	if err != nil {
		return err
	}
	start := time.Now()
	mst, err := oltp.RunMonolithic(mono.DB.NewCtx(nil, 0, 4<<20), mono.StagedPrograms(ins, false))
	if err != nil {
		return err
	}
	mdur := time.Since(start)
	mdig, err := mono.StateDigest()
	if err != nil {
		return err
	}

	coh, _, err := build()
	if err != nil {
		return err
	}
	sched := oltp.NewScheduler(coh.DB.Codes, oltp.Config{Cohort: cohort, Generation: coh.Mgr.LM.Generation})
	start = time.Now()
	cst, err := sched.Run(coh.DB.NewCtx(nil, 0, 4<<20), coh.StagedPrograms(ins, true))
	if err != nil {
		return err
	}
	cdur := time.Since(start)
	cdig, err := coh.StateDigest()
	if err != nil {
		return err
	}

	fmt.Printf("inputs: %d clients x %d transactions (deterministic seed, %d%% remote)\n", clients, per, remotePct)
	fmt.Printf("monolithic: %d txns in %s (%.0f txn/s native)\n",
		mst.Committed, mdur.Truncate(time.Microsecond), float64(mst.Committed)/mdur.Seconds())
	fmt.Printf("cohort %2d:  %d txns in %s (%.0f txn/s native)\n",
		cohort, cst.Committed, cdur.Truncate(time.Microsecond), float64(cst.Committed)/cdur.Seconds())
	fmt.Printf("scheduler: %d quanta, %d stage switches, %d steps, %d parks, %d wounds, %d deadlocks\n",
		cst.Quanta, cst.StageSwitches, cst.Steps, cst.Parks, cst.Wounds, cst.Deadlocks)
	if mdig != cdig {
		return fmt.Errorf("state digest mismatch: monolithic %#x vs cohort %#x", mdig, cdig)
	}
	fmt.Printf("state digests match: %#x\n", mdig)

	if parts <= 1 {
		return nil
	}
	pw, _, err := build()
	if err != nil {
		return err
	}
	plan := pw.PartitionPlan(ins, parts)
	ctxs := make([]*engine.Ctx, parts)
	for p := range ctxs {
		ctxs[p] = pw.DB.NewCtx(nil, p, 4<<20)
	}
	start = time.Now()
	per2, err := oltp.RunPartitioned(ctxs, pw.DB.Codes, pw.StagedPrograms(ins, true), plan,
		oltp.Config{Cohort: oltp.SplitWindow(cohort, parts), Generation: pw.Mgr.LM.Generation})
	if err != nil {
		return err
	}
	pdur := time.Since(start)
	pdig, err := pw.StateDigest()
	if err != nil {
		return err
	}
	var pst oltp.Stats
	for _, s := range per2 {
		pst.Add(s)
	}
	fmt.Printf("parts %2d:   %d txns in %s (%.0f txn/s native, %d cross-partition fenced)\n",
		parts, pst.Committed, pdur.Truncate(time.Microsecond), float64(pst.Committed)/pdur.Seconds(), len(plan.Fences()))
	for p, s := range per2 {
		fmt.Printf("  part %d: %4d txns, %5d steps, %4d parks, %3d wounds\n",
			p, s.Committed, s.Steps, s.Parks, s.Wounds)
	}
	if pdig != mdig {
		return fmt.Errorf("state digest mismatch: partitioned %#x vs monolithic %#x", pdig, mdig)
	}
	fmt.Printf("partitioned digest matches: %#x\n", pdig)
	return nil
}

func run(txns, lineitems, workers int, shared bool, clients int, rowPlans bool) error {
	fmt.Println("== OLTP: TPC-C-like ==")
	start := time.Now()
	w, err := workload.BuildTPCC(workload.TPCCConfig{Warehouses: 2, Items: 5000, CustPerDis: 200, ArenaBytes: 128 << 20})
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d-warehouse database in %s\n", w.Cfg.Warehouses, time.Since(start).Truncate(time.Millisecond))

	ctx := w.DB.NewCtx(nil, 0, 4<<20)
	// Seeded like every other driver, so the mix and the query parameters
	// (drawn from the same rng below) repeat run to run.
	rng := rand.New(rand.NewSource(7))
	var counts workload.MixCounts
	start = time.Now()
	for i := 0; i < txns; i++ {
		if err := w.RunOne(ctx, rng, &counts); err != nil {
			return err
		}
	}
	dur := time.Since(start)
	fmt.Printf("ran %d transactions in %s (%.0f txn/s native)\n",
		counts.Total(), dur.Truncate(time.Millisecond), float64(counts.Total())/dur.Seconds())
	fmt.Printf("mix: NewOrder=%d Payment=%d OrderStatus=%d Delivery=%d StockLevel=%d deadlockRetries=%d\n",
		counts.NewOrder, counts.Payment, counts.OrderStatus, counts.Delivery, counts.StockLevel, counts.Deadlocks)

	fmt.Println("\n== DSS: TPC-H-like ==")
	start = time.Now()
	h, err := workload.BuildTPCH(workload.TPCHConfig{Lineitems: lineitems, ArenaBytes: 192 << 20})
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d lineitem rows in %s\n", lineitems, time.Since(start).Truncate(time.Millisecond))

	var env *workload.ShareEnv
	if shared {
		env = h.NewShareEnv()
	}
	var pctxs []*engine.Ctx
	if workers > 1 {
		for i := 0; i < workers; i++ {
			pctxs = append(pctxs, h.DB.NewCtx(nil, 64+i, 48<<20))
		}
	}

	qctx := h.DB.NewCtx(nil, 1, 96<<20)
	params := workload.RandomParams(rng)
	for _, q := range workload.Queries {
		qctx.Work.Reset()
		for _, pc := range pctxs {
			pc.Work.Reset()
		}
		start = time.Now()
		var rows [][]engine.Value
		mode := "serial-vectorized"
		switch {
		case shared && workload.HasPlan(q):
			mode = "shared-scan"
			rows, err = h.RunQueryShared(qctx, q, params, env)
		case workers > 1 && workload.HasPlan(q):
			mode = fmt.Sprintf("parallel x%d", workers)
			rows, err = h.RunQueryParallelNative(pctxs, q, params, workload.NativeOpts{})
		case rowPlans:
			mode = "serial-row"
			rows, err = h.RunQueryRow(qctx, q, params)
		default:
			rows, err = h.RunQuery(qctx, q, params)
		}
		if err != nil {
			return err
		}
		fmt.Printf("\nQ%d analog (%s): %d result rows in %s\n", q, mode, len(rows), time.Since(start).Truncate(time.Millisecond))
		printRows(rows, 5)
	}

	if shared && clients > 1 {
		fmt.Printf("\n== Work sharing: %d concurrent clients, Q1/Q6/Q13 mix ==\n", clients)
		un, err := h.RunConcurrentDSS(clients, 2, nil, 7)
		if err != nil {
			return err
		}
		sh, err := h.RunConcurrentDSS(clients, 2, h.NewShareEnv(), 7)
		if err != nil {
			return err
		}
		fmt.Printf("unshared: %d queries in %s (%.1f q/s)\n",
			un.Queries, un.Elapsed.Truncate(time.Millisecond), un.Throughput())
		fmt.Printf("shared:   %d queries in %s (%.1f q/s)\n",
			sh.Queries, sh.Elapsed.Truncate(time.Millisecond), sh.Throughput())
		if sh.Elapsed > 0 {
			fmt.Printf("host-time gain: %.2fx\n", un.Elapsed.Seconds()/sh.Elapsed.Seconds())
		}
		fmt.Printf("sharing: %d rotations over %d attaches, %d pages scanned; cache %d hits / %d misses\n",
			sh.Scans.Rotations, sh.Scans.Attaches, sh.Scans.PagesScanned, sh.Cache.Hits, sh.Cache.Misses)
	}
	return nil
}

func printRows(rows [][]engine.Value, max int) {
	for i, r := range rows {
		if i == max {
			fmt.Printf("  ... (%d more)\n", len(rows)-max)
			return
		}
		fmt.Print("  ")
		for j, v := range r {
			if j > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
}
