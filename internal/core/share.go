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

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/share"
	"repro/internal/workload"
)

// sharedProducerWorkers is the number of traced scan workers feeding each
// shared table's producer in simulated runs.
const sharedProducerWorkers = 2

// sharedLabel names a shared-dss side.
func sharedLabel(shared bool) string {
	if shared {
		return "shared"
	}
	return "unshared"
}

// sharedDSS runs the request's clients to completion on a fresh chip, each
// firing one query — the request's planned query, or for query 0 their
// mix — with private predicate parameters. With shared set, scans ride
// circular shared scans (producer workers on their own chip threads) and
// aggregates the result-reuse cache; unshared, every client runs the
// private serial plan at the staggered phases multi-client DSS clients use
// today. The chip geometry is identical in both modes, so the cycle ratio
// isolates the work-sharing effect. The side, labeled sharedLabel, reports
// the slowest client's completion cycle (all the queries are done by then),
// result rows summed over clients, the scan and result-cache counters, and
// a digest combining each client's RowsDigest in client order. That digest
// is reproducible for unshared runs (fixed phases, fixed seeds) but NOT
// comparable across the shared/unshared pair: a consumer attaches to the
// circular scan wherever the producer happens to be, so float aggregates
// accumulate in a rotated order and differ in low bits. A traced side
// carries a root run span, one query span per client (on the client's
// simulated thread), and — on the shared side — a "rotation" span nested
// inside each query covering the client's attach-to-detach window on the
// circular scan (one full rotation).
func (r *Runner) sharedDSS(req Request, shared bool) (Side, error) {
	h, err := r.TPCH()
	if err != nil {
		return Side{}, err
	}
	clients := req.Clients
	queries := []int{req.Query}
	if req.Query == 0 {
		queries = workload.Planned()
	}
	queryOf := func(i int) int { return queries[i%len(queries)] }
	var tables []string
	if shared {
		tables = h.SharedTables(queries...)
	}

	// Client threads first (thread ids 0..clients-1), each shared table's
	// producer workers after, so ThreadDone[0:clients] are the query
	// completion times.
	th := newThreads(clients+len(tables)*sharedProducerWorkers, false)
	work := r.dssCtxs(req, h.DB, th, 64)
	var env *workload.ShareEnv
	if shared {
		prodCtxs := make(map[string][]*engine.Ctx)
		for t, tbl := range tables {
			first := clients + t*sharedProducerWorkers
			prodCtxs[tbl] = work[first : first+sharedProducerWorkers]
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

	rows := make([]int, clients)
	digests := make([]uint64, clients)
	side, err := r.simulate(run{
		label: sharedLabel(shared), cell: *req.Cell, threads: th, done: clients,
		work: work, traced: req.Trace,
		produce: func(sc obs.Scope) error {
			err := par.Do(clients, func(i int) error {
				rec := th.recs[i]
				defer rec.Close()
				sc := sc.OnThread(i)
				qsp := sc.Begin(rec, fmt.Sprintf("client-%d-q%d", i, queryOf(i)), "query")
				p := workload.RandomParams(rand.New(rand.NewSource(req.Seed + int64(i))))
				var res [][]engine.Value
				var err error
				if shared {
					// One attach-to-detach on the circular scan is exactly
					// one full rotation: the consumer joins wherever the
					// producer is and leaves when it comes back around.
					rsp := sc.Under(qsp).Begin(rec, "rotation", "rotation")
					res, err = h.RunQueryShared(work[i], queryOf(i), p, env)
					rsp.End(rec)
				} else {
					p.Phase = float64(i%16) / 80
					res, err = h.RunQuery(work[i], queryOf(i), p)
				}
				qsp.End(rec)
				rows[i], digests[i] = len(res), RowsDigest(res)
				if err != nil {
					return fmt.Errorf("core: shared DSS client %d: %w", i, err)
				}
				return nil
			}, nil)
			if env != nil {
				env.Reg.WaitIdle()
			}
			return err
		},
	})
	if err != nil {
		return Side{}, err
	}
	dh := fnv.New64a()
	var dbuf [8]byte
	for i := 0; i < clients; i++ {
		side.Rows += rows[i]
		binary.LittleEndian.PutUint64(dbuf[:], digests[i])
		dh.Write(dbuf[:])
	}
	side.Digest = dh.Sum64()
	if env != nil {
		side.Scans, side.Reuse = env.Reg.Stats(), env.Cache.Stats()
	}
	return side, nil
}
