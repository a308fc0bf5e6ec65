// Cross-query work sharing for the DSS analogs: the shared lowering of
// every plan, whose origin scans attach to the registry's circular scans
// instead of running private scans, result reuse for their aggregate
// outputs, and a multi-client driver firing mixes of the planned queries
// from K concurrent clients — the saturated many-users regime the paper's
// Section 6 says staged, work-shared engines should serve with one pass
// over the data.

package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/share"
)

// ShareEnv bundles the work-sharing services of one server instance.
type ShareEnv struct {
	Reg   *share.Registry
	Cache *share.ResultCache
}

// NewShareEnv builds a default registry and result cache over the DSS
// database.
func (h *TPCH) NewShareEnv() *ShareEnv {
	return h.NewShareEnvWith(share.Config{}, share.NewResultCache(128))
}

// NewShareEnvWith builds an environment with an explicit registry
// configuration (simulated drivers bind producer contexts to chip
// threads) and optional result cache.
func (h *TPCH) NewShareEnvWith(cfg share.Config, cache *share.ResultCache) *ShareEnv {
	return &ShareEnv{Reg: share.NewRegistry(h.DB, cfg), Cache: cache}
}

// resultKey builds the reuse-cache key for query q with parameters p: the
// fingerprint of its row lowering (scan origins and transforms are not
// part of a fingerprint) plus the current write versions of every table
// the plan reads. The versions are read before execution, so a write
// racing the query can only cause a miss later, never a stale hit.
func (h *TPCH) resultKey(q int, p QueryParams) (share.ResultKey, error) {
	pl, err := h.plan(q, p)
	if err != nil {
		return share.ResultKey{}, err
	}
	names := make([]string, len(pl.scans))
	versions := make([]uint64, len(pl.scans))
	for i, s := range pl.scans {
		names[i], versions[i] = s.table.Name, s.table.Version()
	}
	return share.ResultKey{
		Tables:   strings.Join(names, ","),
		Versions: share.Versions(versions...),
		Plan:     engine.PlanFingerprint(h.lower(pl, exec{src: rowSource}).op),
	}, nil
}

// RunQueryShared executes query q through the work-sharing subsystem: a
// result-cache hit returns the memoized rows; otherwise its origin scans
// ride the tables' circular shared scans — the rotation's blocks flow
// straight into the per-query filter, map and aggregate — and the result
// is memoized under the pre-execution table versions. A nil env (or nil
// env.Reg) falls back to the private serial plan.
func (h *TPCH) RunQueryShared(ctx *engine.Ctx, q int, p QueryParams, env *ShareEnv) ([][]engine.Value, error) {
	if env == nil || env.Reg == nil {
		return h.RunQuery(ctx, q, p)
	}
	var key share.ResultKey
	if env.Cache != nil {
		var err error
		key, err = h.resultKey(q, p)
		if err != nil {
			return nil, err
		}
		if rows, ok := env.Cache.Get(key); ok {
			// A hit costs a key probe and a copy-out of the small result.
			code := ctx.DB.Codes.Register("share:cachehit", 1024)
			ctx.Rec.Exec(code, 150+4*len(rows))
			return rows, nil
		}
	}
	rows, err := h.run(ctx, q, p, exec{src: sharedSource, reg: env.Reg})
	if err == nil && env.Cache != nil {
		env.Cache.Put(key, rows)
	}
	return rows, err
}

// ConcurrentDSSResult summarizes one multi-client run.
type ConcurrentDSSResult struct {
	Clients int
	Queries int // completed queries across all clients
	Elapsed time.Duration
	Cache   share.CacheStats
	Scans   share.Stats
}

// Throughput returns queries per second of host time.
func (r ConcurrentDSSResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// RunConcurrentDSS fires rounds queries from each of clients concurrent
// clients, taking the planned queries in turn with private predicate
// parameters. With env non-nil, scans ride the shared registry and
// aggregates the result cache; with env nil every client runs the
// private serial plans — the unshared baseline. It runs natively (no
// simulation); simulated comparisons live in core.RunSharedDSSTraced.
func (h *TPCH) RunConcurrentDSS(clients, rounds int, env *ShareEnv, seed int64) (ConcurrentDSSResult, error) {
	if clients <= 0 || rounds <= 0 {
		return ConcurrentDSSResult{}, fmt.Errorf("workload: concurrent DSS with %d clients x %d rounds", clients, rounds)
	}
	mix := Planned()
	start := time.Now()
	err := par.Do(clients, func(i int) error {
		ctx := h.DB.NewCtx(nil, i, 16<<20)
		prng := rand.New(rand.NewSource(seed + int64(i)))
		for r := 0; r < rounds; r++ {
			q := mix[(i+r)%len(mix)]
			p := RandomParams(prng)
			ctx.Work.Reset()
			if env == nil {
				p.Phase = float64(i%16) / 80 // the unshared clients' staggered convention
			}
			if _, err := h.RunQueryShared(ctx, q, p, env); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	res := ConcurrentDSSResult{Clients: clients, Queries: clients * rounds, Elapsed: time.Since(start)}
	if err != nil {
		return res, err
	}
	if env != nil {
		env.Reg.WaitIdle()
		res.Scans = env.Reg.Stats()
		if env.Cache != nil {
			res.Cache = env.Cache.Stats()
		}
	}
	return res, nil
}
