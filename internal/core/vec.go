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
	"sync"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// VecDSSResult is one serial-query measurement on one executor.
type VecDSSResult struct {
	Camp  sim.Camp
	Query int
	// Vectorized reports which executor ran the plan.
	Vectorized bool
	// Cycles is the query's completion cycle (response time).
	Cycles uint64
	Result sim.Result
	Rows   int
	// Digest is RowsDigest of the result set: both executors must
	// produce byte-identical rows, and the unified API exposes this as
	// the run's logical-output fingerprint.
	Digest uint64
}

// Throughput returns queries per million simulated cycles.
func (r VecDSSResult) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 1e6 / float64(r.Cycles)
}

// RunVecDSS executes one serial planned query to completion on a
// fresh chip described by cell, on the vectorized executor or the
// row-at-a-time reference path. An optional join mode pins the hash-join
// strategy of joining plans (Q13); omitted, the auto policy decides.
func (r *Runner) RunVecDSS(cell Cell, q int, vectorized bool, seed int64, mode ...engine.JoinMode) (VecDSSResult, error) {
	if !workload.HasPlan(q) {
		return VecDSSResult{}, fmt.Errorf("core: vectorized DSS query %d (have %s)", q, plannedList(""))
	}
	h, err := r.TPCH()
	if err != nil {
		return VecDSSResult{}, err
	}
	chip := r.newChip(cell)

	rec, s := trace.Pipe()
	chip.AddThread(s)
	ctx := r.workCtx(h.DB, rec, 72, dssWorkBytes)
	ctx.Join = r.Join
	if len(mode) > 0 {
		ctx.JoinMode = mode[0]
	}

	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	var rows int
	var digest uint64
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rec.Close()
		run := h.RunQueryRow
		if vectorized {
			run = h.RunQuery
		}
		v, err := run(ctx, q, p)
		rows, digest, runErr = len(v), RowsDigest(v), err
	}()

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 5000
	}
	chip.Warm(warm)
	res := chip.Run(1 << 34)
	s.Stop()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	wg.Wait()
	// Released here and not by defer: a side that panics never gets this
	// far, and what it held — the query goroutine may still be writing to
	// the workspace — goes to the collector instead of to the next run.
	r.releaseWork(ctx)
	r.releaseChip(chip)
	if runErr != nil {
		return VecDSSResult{}, fmt.Errorf("core: vec DSS q%d: %w", q, runErr)
	}

	cycles := res.ThreadDone[0]
	if cycles == 0 {
		cycles = res.Cycles
	}
	return VecDSSResult{
		Camp: cell.Camp, Query: q, Vectorized: vectorized,
		Cycles: cycles, Result: res, Rows: rows, Digest: digest,
	}, nil
}
