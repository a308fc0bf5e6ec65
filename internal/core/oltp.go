// Staged-OLTP experiment: paired traced runs of the same pre-drawn
// transaction inputs on identical chip geometry — once monolithically
// (each transaction runs start-to-finish, cycling through the five
// transaction types' large code bodies) and once cohort-scheduled
// (STEPS-style: N transactions in flight, one stage's cohort per quantum,
// small shared stage code segments). The cohort path must cut simulated
// L1I misses and instruction stalls while producing byte-identical
// database state.
//
// At parts > 1 the cohort side runs multi-worker: transactions are
// partitioned by home warehouse across parts cohort schedulers, one per
// simulated core (own Ctx, own trace stream), with commits drained in
// global admission order and cross-partition transactions fenced through
// txn.SeqClock — so the digest stays byte-identical to the monolithic
// reference at every partition count.

package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/oltp"
)

// stagedOLTP executes the deterministic transaction batch of req on a
// fresh chip — cohort-scheduled across parts partitions when cohorted is
// set, monolithically (parts 1) otherwise — and returns the side labeled
// stagedLabel: the slowest worker thread's completion cycle, transactions
// committed, scheduler counters (summed over partitions, and per partition
// when there are several), the cross-partition transactions run in
// isolation, and the digest of the final logical state. Each run starts
// from the loaded database (all sides of a comparison must start from
// identical state): a private fork of the Runner's resident TPC-C image,
// which is what workload.BuildTPCC would return, byte for byte, for the
// cost of a page copy. The run owns the fork and its arena until the final
// state has been digested, then hands the arena back for the next fork;
// the image itself is never written. The monolithic reference and a
// single-partition cohort run use one traced worker, which runs as a
// coroutine of the simulator: such a side occupies one host thread from
// fork to digest. A partitioned cohort run uses one worker thread per
// partition, its in-flight window split evenly across them. A traced side
// carries the span run (run → txn → quantum/step), whose root span covers
// [0, Cycles], so span totals reconcile exactly.
func (r *Runner) stagedOLTP(req Request, cohorted bool, parts int) (Side, error) {
	w, err := r.forkTPCC()
	if err != nil {
		return Side{}, err
	}
	ins := w.StagedInputsMix(req.Clients, req.Txns, req.Seed, req.RemotePct)
	progs := w.StagedPrograms(ins, cohorted)

	// One traced worker feeds the simulator as its coroutine (trace.Inline):
	// the side then occupies a single host thread, and its duration does not
	// depend on the host scheduling a producer thread beside the simulator.
	// Partition schedulers wait for one another (commit order, fences), so
	// they need threads of their own and bounded channel pipes.
	th := newThreads(parts, parts == 1)
	ctxs := make([]*engine.Ctx, parts)
	for p, rec := range th.recs {
		ctxs[p] = r.workCtx(w.DB, rec, p, oltpWorkBytes)
	}
	var sched oltp.Stats
	var perPart []oltp.Stats
	var fenced int
	side, err := r.simulate(run{
		label: stagedLabel(cohorted, parts), cell: *req.Cell, threads: th,
		// Warm is per thread: the budget is split across partition workers
		// so every partition count warms the same total number of references
		// and the scaling comparison stays apples-to-apples.
		warmSplit: parts, done: parts, work: ctxs, traced: req.Trace,
		produce: func(sc obs.Scope) (err error) {
			switch {
			case !cohorted:
				sched, err = oltp.RunMonolithicTraced(ctxs[0], progs, sc)
			case parts == 1:
				s := oltp.NewScheduler(w.DB.Codes, oltp.Config{
					Cohort: req.Cohort, Generation: w.Mgr.LM.Generation,
					Obs: sc, Metrics: r.Sched,
				})
				sched, err = s.Run(ctxs[0], progs)
			default:
				plan := w.PartitionPlan(ins, parts)
				fenced = len(plan.Fences())
				cfg := oltp.Config{
					Cohort: oltp.SplitWindow(req.Cohort, parts), Generation: w.Mgr.LM.Generation,
					Obs: sc, Metrics: r.Sched,
				}
				perPart, err = oltp.RunPartitioned(ctxs, w.DB.Codes, progs, plan, cfg)
				for _, st := range perPart {
					sched.Add(st)
				}
			}
			return err
		},
	})
	if err != nil {
		// The fork goes to the collector with the workspaces.
		return Side{}, fmt.Errorf("core: staged OLTP (cohorted=%v parts=%d): %w", cohorted, parts, err)
	}
	side.Digest, err = w.StateDigest()
	r.arenas.put(w.DB.Release())
	if err != nil {
		return Side{}, err
	}
	side.Txns, side.Sched, side.PerPart = sched.Committed, sched, perPart
	side.Parts, side.Fenced = parts, fenced
	return side, nil
}

// stagedLabel names a staged-oltp side.
func stagedLabel(cohorted bool, parts int) string {
	if !cohorted {
		return "monolithic"
	}
	return fmt.Sprintf("cohort-%d", parts)
}
