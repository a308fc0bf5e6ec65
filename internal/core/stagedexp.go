package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/staged"
)

// StagedResult is one execution mode of the Section 6 experiment.
type StagedResult struct {
	Mode string
	// Cycles to process the input (response time).
	Cycles uint64
	// Breakdown fractions of busy cycles.
	CompFrac, IStallFrac, DStallL2Frac float64
	// L1DHitRate over the run.
	L1DHitRate float64
	Rows       int
}

// The staged experiment's fixed date cutoff (~75% selectivity).
const dateCut = 1920

// The staged experiment's workspaces: worker i of at most
// stagedMaxWorkers has slot stagedSlot+i, and the aggregate sink the slot
// after the workers'.
const (
	stagedSlot       = 32
	stagedMaxWorkers = 3
	stagedWork       = dssWorkBytes
	stagedSinkWork   = 4 << 20
)

// StagedExperiment compares monolithic Volcano execution against the
// staged executors of Section 6.3 on an FC CMP:
//
//	volcano          — one thread pulls tuple-at-a-time through the plan
//	staged-affinity  — one thread, packet-at-a-time (STEPS-style batching)
//	staged-parallel  — packet pool: a source worker plus stage-chain
//	                   consumers, each on its own FC core
//	staged-colocated — the same pool packed onto three contexts of ONE
//	                   LC core (packets stay core-local)
//
// The parallel/colocated pair contrasts spreading the pool across cores
// (parallelism, packets cross the L2) against packing it on one core
// (locality, packets stay L1-resident but contexts time-share). Every mode
// runs scan → filter(shipdate) → group-by-suppkey sum(extendedprice) over
// lineitem and reports the rows absorbed by the final operator. rows caps
// the lineitem prefix processed (0 = 150000).
func (r *Runner) StagedExperiment(rows int) ([]StagedResult, error) {
	if rows == 0 {
		rows = 150000
	}
	h, err := r.TPCH()
	if err != nil {
		return nil, err
	}
	db, lineitem := h.DB, h.Lineitem()
	ls := lineitem.Schema
	plan := func() (engine.Op, []engine.Pred) {
		src := engine.Op(&engine.SeqScan{Table: lineitem})
		if rows > 0 {
			src = &engine.Limit{Child: src, N: rows}
		}
		return src, []engine.Pred{engine.PredInt(ls.Col("l_shipdate"), engine.LE, dateCut)}
	}
	// pipeline builds the staged modes' plan. Its aggregate sink works in a
	// workspace of its own: the pool's consumers absorb into the sink under
	// its lock while they allocate edge packets from their own workspaces
	// without one, so the sink's table must not grow in any of theirs.
	pipeline := func(sink *engine.Ctx) *staged.Pipeline {
		src, preds := plan()
		return &staged.Pipeline{
			DB:     db,
			Source: src,
			Stages: []staged.Stage{staged.FilterStage(db, ls, preds)},
			Sink:   staged.NewAggSink(sink, db, ls, ls.Col("l_suppkey"), ls.Col("l_extendedprice")),
		}
	}
	modes := []struct {
		mode    string
		camp    sim.Camp
		workers int
		// at places the workers; nil is round-robin, one per core.
		at  []int
		run func(ctxs []*engine.Ctx, sink *engine.Ctx) (int, error)
	}{
		// A pass-through Map counts the rows reaching the aggregate, so that
		// every mode reports the same work unit.
		{"volcano", sim.FatCamp, 1, nil, func(ctxs []*engine.Ctx, _ *engine.Ctx) (int, error) {
			src, preds := plan()
			n := 0
			counted := &engine.Map{
				Child: &engine.Filter{Child: src, Preds: preds},
				Out:   ls,
				Fn: func(in, out []byte) {
					copy(out, in)
					n++
				},
				Cost: 1,
			}
			err := engine.Run(ctxs[0], &engine.HashAgg{
				Child:     counted,
				GroupCols: []int{ls.Col("l_suppkey")},
				Aggs:      []engine.AggSpec{{Func: engine.Sum, Col: ls.Col("l_extendedprice"), Name: "rev"}},
				Expected:  4096,
			}, nil)
			return n, err
		}},
		{"staged-affinity", sim.FatCamp, 1, nil, func(ctxs []*engine.Ctx, sink *engine.Ctx) (int, error) {
			return pipeline(sink).RunAffinity(ctxs[0])
		}},
		{"staged-parallel", sim.FatCamp, 3, nil, func(ctxs []*engine.Ctx, sink *engine.Ctx) (int, error) {
			return pipeline(sink).RunParallel(ctxs)
		}},
		// Contexts 0, 1 and 2 of core 0 of the 4-core LC chip, so producers
		// and consumers share that core's L1s (the paper's co-location
		// lever, applied to the pool's workers).
		{"staged-colocated", sim.LeanCamp, 3, []int{0, 4, 8}, func(ctxs []*engine.Ctx, sink *engine.Ctx) (int, error) {
			return pipeline(sink).RunParallel(ctxs)
		}},
	}

	out := make([]StagedResult, 0, len(modes))
	for _, m := range modes {
		cell := DefaultCell(m.camp, DSS, true)
		cell.WarmRefs = 50000
		th := newThreads(m.workers, false)
		// The workers' workspaces, then the sink's.
		work := make([]*engine.Ctx, m.workers+1)
		for i, rec := range th.recs {
			work[i] = r.workCtx(db, rec, stagedSlot+i, stagedWork)
		}
		sink := db.NewCtxOn(nil, r.arenas.take(engine.WorkSlotBase(stagedSlot+stagedMaxWorkers, stagedWork), stagedSinkWork))
		work[m.workers] = sink
		var n int
		side, err := r.simulate(run{
			label: m.mode, cell: cell, threads: th, at: m.at, done: m.workers, work: work,
			produce: func(obs.Scope) (err error) {
				n, err = m.run(work[:m.workers], sink)
				return err
			},
		})
		if err != nil {
			return nil, fmt.Errorf("core: staged mode %s: %w", m.mode, err)
		}
		res := side.Result
		st := res.Cache
		sr := StagedResult{Mode: m.mode, Cycles: side.Cycles, Rows: n}
		if tot := st.L1DHits + st.L1DMisses; tot > 0 {
			sr.L1DHitRate = float64(st.L1DHits) / float64(tot)
		}
		if busy := float64(res.Breakdown.Busy()); busy > 0 {
			sr.CompFrac = float64(res.Breakdown.Computation()) / busy
			sr.IStallFrac = float64(res.Breakdown.IStalls()) / busy
			sr.DStallL2Frac = float64(res.Breakdown.DStallL2()) / busy
		}
		out = append(out, sr)
	}
	return out, nil
}
