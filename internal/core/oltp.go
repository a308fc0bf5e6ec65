// Staged-OLTP experiment: paired traced runs of the same pre-drawn
// transaction inputs on identical chip geometry — once monolithically
// (each transaction runs start-to-finish, cycling through the five
// transaction types' large code bodies) and once cohort-scheduled
// (STEPS-style: N transactions in flight, one stage's cohort per quantum,
// small shared stage code segments). The cohort path must cut simulated
// L1I misses and instruction stalls while producing byte-identical
// database state.
//
// With Parts > 1 the cohort side runs multi-worker: transactions are
// partitioned by home warehouse across Parts cohort schedulers, one per
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

// StagedOLTPOpts shapes one paired staged-OLTP measurement.
type StagedOLTPOpts struct {
	Clients   int   // logical client streams (default 8)
	PerClient int   // transactions per client (default 8)
	Cohort    int   // in-flight transactions on the cohort side (default 16)
	Seed      int64 // input stream seed (default 7)
	// Parts partitions the cohort side by home warehouse across this many
	// scheduler workers, one per simulated core (default 1). The in-flight
	// window is split evenly across partitions.
	Parts int
	// RemotePct is the percent chance that a NewOrder line or Payment
	// customer is drawn from a non-home warehouse (default 0): remote
	// transactions cross partitions and exercise the global fence.
	RemotePct int
	// Trace collects dual-clock spans (run → txn → quantum/step) into
	// the side's Trace. Span markers shift trace-chunk boundaries, so traced
	// cycles are not comparable to untraced cycles.
	Trace bool
}

// WithDefaults resolves every zero-valued field to its default — THE one
// place sane cohort/txns/parts values come from; callers must not
// re-derive them. Negative values are left for Validate to reject.
func (o StagedOLTPOpts) WithDefaults() StagedOLTPOpts {
	if o.Clients == 0 {
		o.Clients = 8
	}
	if o.PerClient == 0 {
		o.PerClient = 8
	}
	if o.Cohort == 0 {
		o.Cohort = 16
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Parts == 0 {
		o.Parts = 1
	}
	return o
}

// Validate rejects unrunnable options with a *ValidationError instead of
// letting a bad partition or remote draw panic deep in partitioning, or a
// huge count from the wire exhaust memory (see the max* constants). It
// assumes WithDefaults has resolved zero values; RunStagedOLTP applies
// both.
func (o StagedOLTPOpts) Validate() error {
	if err := checkCount("clients", "client streams", o.Clients, maxClients); err != nil {
		return err
	}
	if err := checkCount("txns", "transactions per client", o.PerClient, maxTxns); err != nil {
		return err
	}
	if err := checkCount("cohort", "transactions in the cohort window", o.Cohort, maxCohort); err != nil {
		return err
	}
	if err := checkCount("parts", "partitions", o.Parts, maxParts); err != nil {
		return err
	}
	if o.RemotePct < 0 || o.RemotePct > 100 {
		return &ValidationError{Field: "remote", Reason: fmt.Sprintf("remote%% %d outside [0,100]", o.RemotePct)}
	}
	return nil
}

// RunStagedOLTP executes the deterministic transaction stream described
// by o on a fresh chip built from cell — cohort-scheduled when cohorted
// is set, monolithically otherwise — and returns the side labeled
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
// fork to digest. A partitioned cohort run (o.Parts > 1) uses one worker
// thread per partition. With o.Trace set the side carries the span run,
// whose root span covers [0, Cycles], so span totals reconcile exactly.
func (r *Runner) RunStagedOLTP(cell Cell, cohorted bool, o StagedOLTPOpts) (Side, error) {
	o = o.WithDefaults()
	if err := o.Validate(); err != nil {
		return Side{}, err
	}
	w, err := r.forkTPCC()
	if err != nil {
		return Side{}, err
	}
	ins := w.StagedInputsMix(o.Clients, o.PerClient, o.Seed, o.RemotePct)
	progs := w.StagedPrograms(ins, cohorted)

	parts := 1
	if cohorted {
		parts = o.Parts
	}
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
		label: stagedLabel(cohorted, parts), cell: cell, threads: th,
		// Warm is per thread: the budget is split across partition workers
		// so every partition count warms the same total number of references
		// and the scaling comparison stays apples-to-apples.
		warm: 20000, warmSplit: parts, done: parts, work: ctxs, traced: o.Trace,
		produce: func(sc obs.Scope) (err error) {
			switch {
			case !cohorted:
				sched, err = oltp.RunMonolithicTraced(ctxs[0], progs, sc)
			case parts == 1:
				s := oltp.NewScheduler(w.DB.Codes, oltp.Config{
					Cohort: o.Cohort, Generation: w.Mgr.LM.Generation,
					Obs: sc, Metrics: r.Sched,
				})
				sched, err = s.Run(ctxs[0], progs)
			default:
				plan := w.PartitionPlan(ins, parts)
				fenced = len(plan.Fences())
				cfg := oltp.Config{
					Cohort: oltp.SplitWindow(o.Cohort, parts), Generation: w.Mgr.LM.Generation,
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
