// Cross-query work-sharing experiments: K concurrent DSS clients on one
// simulated chip, with and without the share registry. Unshared, every
// client runs a private scan of the hot table — K passes over the data
// contending for the cache hierarchy. Shared, the clients attach to one
// circular shared scan whose producer workers occupy their own hardware
// contexts, and each client only filters the common batches. The cycle
// ratio between the two modes is the paper's "aggressive data sharing
// across queries" opportunity, measured.

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sharedProducerWorkers is the number of traced scan workers feeding each
// shared table's producer in simulated runs.
const sharedProducerWorkers = 2

// SharedDSSResult is one multi-client measurement.
type SharedDSSResult struct {
	Camp    sim.Camp
	Query   int // 0 = the Q1/Q6/Q13 mix
	Clients int
	Shared  bool
	// Cycles is the completion cycle of the slowest client: all K queries
	// are done by then, so Clients/Cycles is aggregate throughput.
	Cycles uint64
	Result sim.Result
	Rows   int // result rows summed over clients
	// Digest combines each client's RowsDigest in client order. It is
	// reproducible for unshared runs (fixed phases, fixed seeds) but NOT
	// comparable across the shared/unshared pair: a consumer attaches to
	// the circular scan wherever the producer happens to be, so float
	// aggregates accumulate in a rotated order and differ in low bits.
	Digest uint64
	Scans  share.Stats
	Cache  share.CacheStats
	// Trace is the dual-clock span run (run → query → rotation) when
	// tracing was requested.
	Trace *obs.Run
}

// Throughput returns queries completed per million simulated cycles.
func (r SharedDSSResult) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Clients) / float64(r.Cycles) * 1e6
}

// RunSharedDSSTraced runs clients concurrent DSS clients to completion on
// a fresh chip described by cell, each firing one query — a planned query
// q, or 0 for their mix — with private predicate parameters. With shared
// set, scans ride circular shared scans (producer workers on their own
// chip threads) and aggregates the result-reuse cache; unshared, every
// client runs the private serial plan at the staggered phases multi-client
// DSS clients use today. The chip geometry is identical in both modes, so
// the cycle ratio isolates the work-sharing effect. With traced set it
// collects dual-clock spans: a root run span, one query span per client
// (on the client's simulated thread), and — on the shared side — a
// "rotation" span nested inside each query covering the client's
// attach-to-detach window on the circular scan (one full rotation).
func (r *Runner) RunSharedDSSTraced(cell Cell, q, clients int, shared bool, seed int64, traced bool) (SharedDSSResult, error) {
	if clients <= 0 {
		return SharedDSSResult{}, fmt.Errorf("core: shared DSS with %d clients", clients)
	}
	if q != 0 && !workload.HasPlan(q) {
		return SharedDSSResult{}, fmt.Errorf("core: shared DSS query %d (have %s, or 0 for the mix)", q, plannedList(""))
	}
	h, err := r.TPCH()
	if err != nil {
		return SharedDSSResult{}, err
	}
	chip := r.newChip(cell)

	label := "unshared"
	if shared {
		label = "shared"
	}
	var tracer *obs.Tracer
	var root *obs.Span
	if traced {
		tracer = obs.NewTracer()
		chip.SetMarkHandler(tracer.OnMark)
		root = tracer.BeginAt(0, 0, label, "run")
		tracer.StampStart(root, 0)
	}

	// work collects client and producer contexts alike, released after
	// wg.Wait, by when the client goroutines and the registry's producers
	// are done with their workspaces (and not by defer: see RunVecDSS).
	var work []*engine.Ctx

	// Client threads first (thread ids 0..clients-1), producers after, so
	// ThreadDone[0:clients] are the query completion times.
	ctxs := make([]*engine.Ctx, clients)
	recs := make([]*trace.Recorder, clients)
	streams := make([]*trace.Stream, 0, clients+2*sharedProducerWorkers)
	for i := 0; i < clients; i++ {
		rec, s := trace.Pipe()
		recs[i], streams = rec, append(streams, s)
		chip.AddThread(s)
		ctxs[i] = r.workCtx(h.DB, rec, 64+i, dssWorkBytes)
		work = append(work, ctxs[i])
	}

	queries := []int{q}
	if q == 0 {
		queries = workload.Planned()
	}
	var env *workload.ShareEnv
	var prodRecs []*trace.Recorder
	if shared {
		prodCtxs := make(map[string][]*engine.Ctx)
		slot := 64 + clients
		for _, tbl := range h.SharedTables(queries...) {
			ws := make([]*engine.Ctx, sharedProducerWorkers)
			for w := range ws {
				rec, s := trace.Pipe()
				prodRecs, streams = append(prodRecs, rec), append(streams, s)
				chip.AddThread(s)
				ws[w] = r.workCtx(h.DB, rec, slot, dssWorkBytes)
				work = append(work, ws[w])
				slot++
			}
			prodCtxs[tbl] = ws
		}
		env = h.NewShareEnvWith(share.Config{
			ProducerWorkers: sharedProducerWorkers,
			NewProducerCtx: func(table string, worker int) *engine.Ctx {
				if ws := prodCtxs[table]; worker < len(ws) {
					return ws[worker]
				}
				return nil // registry falls back to an untraced context
			},
		}, share.NewResultCache(128))
	}

	queryOf := func(i int) int { return queries[i%len(queries)] }

	rows := make([]int, clients)
	digests := make([]uint64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cwg sync.WaitGroup
		for i := 0; i < clients; i++ {
			cwg.Add(1)
			go func(i int) {
				defer cwg.Done()
				defer recs[i].Close()
				sc := obs.Scope{T: tracer, Thread: i, Parent: root.ID()}
				qsp := sc.Begin(recs[i], fmt.Sprintf("client-%d-q%d", i, queryOf(i)), "query")
				p := workload.RandomParams(rand.New(rand.NewSource(seed + int64(i))))
				var res [][]engine.Value
				var err error
				if shared {
					// One attach-to-detach on the circular scan is exactly
					// one full rotation: the consumer joins wherever the
					// producer is and leaves when it comes back around.
					rsp := sc.Under(qsp).Begin(recs[i], "rotation", "rotation")
					res, err = h.RunQueryShared(ctxs[i], queryOf(i), p, env)
					rsp.End(recs[i])
				} else {
					p.Phase = float64(i%16) / 80
					res, err = h.RunQuery(ctxs[i], queryOf(i), p)
				}
				qsp.End(recs[i])
				rows[i], digests[i], errs[i] = len(res), RowsDigest(res), err
			}(i)
		}
		cwg.Wait()
		if env != nil {
			env.Reg.WaitIdle()
		}
		for _, rec := range prodRecs {
			rec.Close()
		}
	}()

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 50000
	}
	chip.Warm(warm)
	simRes := chip.Run(1 << 34)
	for _, s := range streams {
		s.Stop()
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	wg.Wait()
	r.releaseWork(work...)
	r.releaseChip(chip)

	out := SharedDSSResult{Camp: cell.Camp, Query: q, Clients: clients, Shared: shared, Result: simRes}
	dh := fnv.New64a()
	var dbuf [8]byte
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			return out, fmt.Errorf("core: shared DSS client %d: %w", i, errs[i])
		}
		out.Rows += rows[i]
		binary.LittleEndian.PutUint64(dbuf[:], digests[i])
		dh.Write(dbuf[:])
		if d := simRes.ThreadDone[i]; d > out.Cycles {
			out.Cycles = d
		}
	}
	out.Digest = dh.Sum64()
	if out.Cycles == 0 {
		out.Cycles = simRes.Cycles
	}
	if env != nil {
		out.Scans = env.Reg.Stats()
		out.Cache = env.Cache.Stats()
	}
	if tracer != nil {
		root.EndAt(out.Cycles)
		tracer.Finish(out.Cycles)
		run := tracer.Snapshot(label, out.Cycles)
		out.Trace = &run
	}
	return out, nil
}
