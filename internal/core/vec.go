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

// RunVecDSS runs one side of the vec-dss request for query q at seed on
// cell, with the hash-join strategy pinned to mode when one is given: the
// entry point for callers that time one side alone. Everything else goes
// through Run.
func (r *Runner) RunVecDSS(cell Cell, q int, vectorized bool, seed int64, mode ...engine.JoinMode) (Side, error) {
	req := Request{Mode: ModeVecDSS, Query: q, Seed: seed, Cell: &cell}
	if len(mode) > 0 {
		req.JoinMode = mode[0].String()
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return Side{}, err
	}
	return r.vecDSS(req, vectorized)
}

// vecLabel names a vec-dss side.
func vecLabel(vectorized bool) string {
	if vectorized {
		return "vectorized"
	}
	return "row"
}

// vecDSS runs the serial query of req to completion on a fresh chip, on
// the vectorized executor or the row-at-a-time reference path, and returns
// the side labeled vecLabel: the query's completion cycle, result rows and
// their RowsDigest (both executors must produce byte-identical rows).
func (r *Runner) vecDSS(req Request, vectorized bool) (Side, error) {
	h, err := r.TPCH()
	if err != nil {
		return Side{}, err
	}
	th := newThreads(1, false)
	ctx := r.dssCtxs(req, h.DB, th, 72)[0]
	p := workload.RandomParams(rand.New(rand.NewSource(req.Seed)))
	query := h.RunQueryRow
	if vectorized {
		query = h.RunQuery
	}
	var rows int
	var digest uint64
	side, err := r.simulate(run{
		label: vecLabel(vectorized), cell: *req.Cell, threads: th, done: 1,
		work: []*engine.Ctx{ctx}, traced: req.Trace,
		produce: func(obs.Scope) error {
			v, err := query(ctx, req.Query, p)
			rows, digest = len(v), RowsDigest(v)
			return err
		},
	})
	if err != nil {
		return Side{}, fmt.Errorf("core: vec DSS q%d: %w", req.Query, err)
	}
	side.Rows, side.Digest = rows, digest
	return side, nil
}
