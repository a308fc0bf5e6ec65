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
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/sim"
	"repro/internal/trace"
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
	// Result.Trace. Span markers shift trace-chunk boundaries, so traced
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

// StagedOLTPResult is one side of the paired measurement.
type StagedOLTPResult struct {
	Cohorted bool   // true: cohort-scheduled; false: monolithic
	Parts    int    // scheduler workers (1 unless partitioned)
	Cycles   uint64 // completion cycle of the slowest worker thread
	Result   sim.Result
	Txns     int          // transactions committed
	Digest   uint64       // final database state digest
	Sched    oltp.Stats   // scheduler counters, summed over partitions
	PerPart  []oltp.Stats // per-partition scheduler counters (Parts > 1)
	Fenced   int          // cross-partition transactions run in isolation
	// Trace is the dual-clock span run when StagedOLTPOpts.Trace was set.
	// Its root span covers [0, Cycles] — span totals reconcile exactly.
	Trace *obs.Run
}

// TxnsPerMcycle is the throughput in transactions per million cycles.
func (r StagedOLTPResult) TxnsPerMcycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Txns) * 1e6 / float64(r.Cycles)
}

// IStallFrac is the fraction of busy cycles lost to instruction stalls.
func (r StagedOLTPResult) IStallFrac() float64 {
	busy := r.Result.Breakdown.Busy()
	if busy == 0 {
		return 0
	}
	return float64(r.Result.Breakdown.IStalls()) / float64(busy)
}

// RunStagedOLTP executes the deterministic transaction stream described
// by o on a fresh chip built from cell — cohort-scheduled when cohorted
// is set, monolithically otherwise. Each run starts from the loaded
// database (all sides of a comparison must start from identical state):
// a private fork of the Runner's resident TPC-C image, which is what
// workload.BuildTPCC would return, byte for byte, for the cost of a page
// copy. The run owns the fork and its arena until the final state has
// been digested, then hands the arena back for the next fork; the image
// itself is never written. The returned digest covers the final logical
// state. The monolithic reference and a single-partition cohort run use
// one traced worker, which runs as a coroutine of the simulator: such a
// side occupies one host thread from fork to digest. A partitioned cohort
// run (o.Parts > 1) uses one worker thread per partition.
func (r *Runner) RunStagedOLTP(cell Cell, cohorted bool, o StagedOLTPOpts) (StagedOLTPResult, error) {
	o = o.WithDefaults()
	if err := o.Validate(); err != nil {
		return StagedOLTPResult{}, err
	}
	w, err := r.forkTPCC()
	if err != nil {
		return StagedOLTPResult{}, err
	}
	ins := w.StagedInputsMix(o.Clients, o.PerClient, o.Seed, o.RemotePct)
	progs := w.StagedPrograms(ins, cohorted)

	parts := 1
	if cohorted {
		parts = o.Parts
	}
	chip := r.newChip(cell)
	// One traced worker feeds the simulator as its coroutine (trace.Inline):
	// the side then occupies a single host thread, and its duration does not
	// depend on the host scheduling a producer thread beside the simulator.
	// Partition schedulers wait for one another (commit order, fences), so
	// they need threads of their own and bounded channel pipes.
	inline := parts == 1
	recs := make([]*trace.Recorder, parts)
	streams := make([]*trace.Stream, parts)
	ctxs := make([]*engine.Ctx, parts)
	for p := 0; p < parts; p++ {
		if inline {
			recs[p], streams[p] = trace.Inline()
		} else {
			recs[p], streams[p] = trace.Pipe()
		}
		chip.AddThread(streams[p])
		ctxs[p] = r.workCtx(w.DB, recs[p], p, oltpWorkBytes)
	}
	// Every return after the end of every stream and wg.Wait releases what
	// the run held: the worker and the partition schedulers it starts are
	// done with the database and the workspaces by then. A run that panics
	// before has not been joined, and leaves it all to the collector.
	joined := false
	defer func() {
		if joined {
			r.releaseWork(ctxs...)
			r.arenas.put(w.DB.Release())
			r.releaseChip(chip)
		}
	}()

	label := stagedLabel(cohorted, parts)
	var tracer *obs.Tracer
	var root *obs.Span
	if o.Trace {
		tracer = obs.NewTracer()
		chip.SetMarkHandler(tracer.OnMark)
		// The root run span is virtual: a fresh chip starts at cycle 0 and
		// the run ends at the reported cycle count, so child span totals
		// reconcile against [0, Cycles] exactly.
		root = tracer.BeginAt(0, 0, label, "run")
		tracer.StampStart(root, 0)
	}
	sc := obs.Scope{T: tracer, Parent: root.ID()}

	res := StagedOLTPResult{Cohorted: cohorted, Parts: parts}
	var runErr error
	work := func() {
		switch {
		case !cohorted:
			res.Sched, runErr = oltp.RunMonolithicTraced(ctxs[0], progs, sc)
		case parts == 1:
			sched := oltp.NewScheduler(w.DB.Codes, oltp.Config{
				Cohort: o.Cohort, Generation: w.Mgr.LM.Generation,
				Obs: sc, Metrics: r.Sched,
			})
			res.Sched, runErr = sched.Run(ctxs[0], progs)
		default:
			plan := w.PartitionPlan(ins, parts)
			res.Fenced = len(plan.Fences())
			cfg := oltp.Config{
				Cohort: oltp.SplitWindow(o.Cohort, parts), Generation: w.Mgr.LM.Generation,
				Obs: sc, Metrics: r.Sched,
			}
			res.PerPart, runErr = oltp.RunPartitioned(ctxs, w.DB.Codes, progs, plan, cfg)
			for _, st := range res.PerPart {
				res.Sched.Add(st)
			}
		}
	}
	var wg sync.WaitGroup
	if inline {
		streams[0].SetProducer(work)
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				for _, rec := range recs {
					rec.Close()
				}
			}()
			work()
		}()
	}

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 20000
	}
	// Warm is per thread: split the budget across partition workers so
	// every partition count warms the same total number of references and
	// the scaling comparison stays apples-to-apples.
	chip.Warm(warm / parts)
	sres := chip.Run(1 << 34)
	for _, s := range streams {
		s.Stop()
	}
	for _, s := range streams {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	wg.Wait()
	joined = true
	if runErr != nil {
		return StagedOLTPResult{}, fmt.Errorf("core: staged OLTP (cohorted=%v parts=%d): %w", cohorted, parts, runErr)
	}

	digest, err := w.StateDigest()
	if err != nil {
		return StagedOLTPResult{}, err
	}
	var cycles uint64
	for p := 0; p < parts; p++ {
		if d := sres.ThreadDone[p]; d > cycles {
			cycles = d
		}
	}
	if cycles == 0 {
		cycles = sres.Cycles
	}
	res.Result, res.Cycles = sres, cycles
	res.Txns, res.Digest = res.Sched.Committed, digest
	if tracer != nil {
		root.EndAt(cycles)
		// Spans whose end markers were lost in the teardown drain close at
		// the run's final cycle, so nothing extends past the root.
		tracer.Finish(cycles)
		run := tracer.Snapshot(label, cycles)
		res.Trace = &run
	}
	return res, nil
}
