// Vectorized-executor experiments: one serial DSS query traced on a
// fresh simulated chip, executed either by the row-at-a-time reference
// operators or by the vectorized batch core, on identical geometry. The
// cycle ratio is the payoff of block-at-a-time execution — amortized
// iterator overhead, ranged instead of per-tuple memory traffic — which
// is the cache-conscious restructuring the paper argues CMP database
// servers need before more cores help.

package core

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunVecDSS executes one serial planned query to completion on a
// fresh chip described by cell, on the vectorized executor or the
// row-at-a-time reference path, and returns the side labeled "vectorized"
// or "row": the query's completion cycle, result rows and their RowsDigest
// (both executors must produce byte-identical rows). An optional join mode
// pins the hash-join strategy of joining plans (Q13); omitted, the auto
// policy decides.
func (r *Runner) RunVecDSS(cell Cell, q int, vectorized bool, seed int64, mode ...engine.JoinMode) (Side, error) {
	return r.vecDSS(cell, q, vectorized, seed, false, mode...)
}

// vecLabel names a vec-dss side.
func vecLabel(vectorized bool) string {
	if vectorized {
		return "vectorized"
	}
	return "row"
}

// vecDSS is RunVecDSS, with a root-span trace when traced.
func (r *Runner) vecDSS(cell Cell, q int, vectorized bool, seed int64, traced bool, mode ...engine.JoinMode) (Side, error) {
	if !workload.HasPlan(q) {
		return Side{}, fmt.Errorf("core: vectorized DSS query %d (have %s)", q, plannedList(""))
	}
	h, err := r.TPCH()
	if err != nil {
		return Side{}, err
	}
	th := newThreads(1, false)
	ctx := r.workCtx(h.DB, th.recs[0], 72, dssWorkBytes)
	ctx.Join = r.Join
	if len(mode) > 0 {
		ctx.JoinMode = mode[0]
	}
	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	query := h.RunQueryRow
	if vectorized {
		query = h.RunQuery
	}
	var rows int
	var digest uint64
	side, err := r.simulate(run{
		label: vecLabel(vectorized), cell: cell, threads: th, warm: 5000, done: 1,
		work: []*engine.Ctx{ctx}, traced: traced,
		produce: func(obs.Scope) error {
			v, err := query(ctx, q, p)
			rows, digest = len(v), RowsDigest(v)
			return err
		},
	})
	if err != nil {
		return Side{}, fmt.Errorf("core: vec DSS q%d: %w", q, err)
	}
	side.Rows, side.Digest = rows, digest
	return side, nil
}
