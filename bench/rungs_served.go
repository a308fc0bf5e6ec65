package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The stacked rungs of the served request shapes, measured top down
// with identical inputs: Runner.Run in process (core), its simulated
// sides (sim + cache), and — in rungsServer — the HTTP round trip.

// coreRequests are the benchmark's six request shapes as core requests.
func coreRequests(seed int64) (kinds []string, reqs []core.Request, err error) {
	kinds = []string{"q6", "q1", "q13", "par", "shared", "txn"}
	for _, q := range []api.QueryRequest{vecQuery(6, seed), vecQuery(1, seed), vecQuery(13, seed), parQuery(seed), sharedQuery(seed)} {
		r, err := q.ToCore()
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, r)
	}
	t, err := txnBatch(seed).ToCore()
	return kinds, append(reqs, t), err
}

// simulatedCycles is the simulated time one request makes the simulator
// cover: DSS modes measure every side twice and keep the faster run.
func simulatedCycles(res core.Result) uint64 {
	var c uint64
	switch res.Mode {
	case core.ModeStagedOLTP:
		c = res.Baseline.Cycles
		for _, s := range res.Sweep {
			c += s.Cycles
		}
	case core.ModeParallelDSS:
		for _, s := range res.Sweep {
			c += 2 * s.Cycles
		}
	default:
		c = 2 * (res.Baseline.Cycles + res.Main.Cycles)
	}
	return c
}

// txnRecords counts the trace records one side of the batch emits, by
// running the same programs against a pipe that a counting consumer
// drains.
func txnRecords(batch api.TxnRequest, cohorted bool) (int, error) {
	rec, stream := trace.Pipe()
	exec, err := batchRun(batch, cohorted, rec)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer rec.Close()
		_, runErr = exec()
	}()
	records := drain(stream)
	wg.Wait()
	return records, runErr
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func rungsCore(l *ladder) error {
	r := core.NewRunner(core.TestScale())
	if _, err := r.TPCH(); err != nil {
		return err
	}
	kinds, reqs, err := coreRequests(l.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i, k := range kinds {
		reps := 1
		switch k {
		case "txn":
			reps = 5 // cheap, and obs.trace_overhead_x.txn divides by it
		case "q6":
			reps = 3 // the rung below is subtracted from it
		}
		var res core.Result
		var runErr error
		var ms []float64
		var ma, mb runtime.MemStats
		runtime.ReadMemStats(&ma)
		for rep := 0; rep < reps; rep++ {
			s := l.time(0, k, "core.run."+k, func() error {
				res, runErr = r.Run(ctx, reqs[i])
				return runErr
			})
			if runErr != nil {
				return fmt.Errorf("Runner.Run %s: %w", k, runErr)
			}
			ms = append(ms, s.ms())
		}
		runtime.ReadMemStats(&mb)
		runMS := median(ms)
		l.put("core.run_ms."+k, runMS)
		l.put("host.alloc_mb_per_op."+k, float64(mb.TotalAlloc-ma.TotalAlloc)/(1<<20)/float64(reps))
		l.put("sim.mcycles_per_host_s."+k, float64(simulatedCycles(res))/1e6/(runMS/1e3))

		switch k {
		case "q6", "q13", "txn":
			m := res.Main
			l.put("sim.cycles."+k, float64(m.Cycles))
			l.put("sim.instructions."+k, float64(m.Result.Instructions))
			l.put("sim.ipc."+k, m.Result.IPC())
			l.put("sim.istall_frac."+k, m.IStallFrac())
			l.put("sim.dstall_frac."+k, ratio(m.Result.Breakdown.DStalls(), m.Result.Breakdown.Busy()))
			c := m.Result.Cache
			l.put("cache.l1d_miss_ratio."+k, ratio(c.L1DMisses, c.L1DHits+c.L1DMisses))
			l.put("cache.l2_miss_ratio."+k, c.L2MissRate())
			if k == "txn" {
				l.put("cache.l1i_misses.txn", float64(c.L1IMisses))
			}
		case "shared":
			l.put("share.rotations", float64(res.Main.Scans.Rotations))
			l.put("share.attaches", float64(res.Main.Scans.Attaches))
			l.put("share.result_cache_hit_ratio", ratio(res.Main.Reuse.Hits, res.Main.Reuse.Hits+res.Main.Reuse.Misses))
		}
	}

	// Trace records the simulator retires per host second of a request:
	// a vec-dss request simulates each side twice, a batch each once.
	q6Records := 2 * (l.values["trace.records.row.q6"] + l.values["trace.records.vec.q6"])
	l.put("sim.mrec_per_host_s.q6", q6Records/1e6/(l.values["core.run_ms.q6"]/1e3))
	batch := txnBatch(l.seed)
	mono, err := txnRecords(batch, false)
	if err != nil {
		return err
	}
	coh, err := txnRecords(batch, true)
	if err != nil {
		return err
	}
	l.put("sim.mrec_per_host_s.txn", float64(mono+coh)/1e6/(l.values["core.run_ms.txn"]/1e3))

	// One rung down: the two simulated sides of the q6 request. The
	// request runs each twice, so run = 2*(row+vec) + core's own time,
	// and a side = trace production + the simulator's share.
	cell := core.DefaultModeCell(core.ModeVecDSS, sim.FatCamp)
	rungs := []rung{{name: "run", ms: l.values["core.run_ms.q6"], below: []string{"row", "row", "vec", "vec"}}}
	for _, side := range []struct {
		name string
		vec  bool
	}{{"row", false}, {"vec", true}} {
		ms := l.medianMS("q6", "core.vec_side."+side.name+".q6", 3, func() error {
			_, err := r.RunVecDSS(cell, 6, side.vec, l.seed, engine.JoinAuto)
			return err
		})
		l.put("core.vec_side_ms."+side.name+".q6", ms)
		rungs = append(rungs,
			rung{name: side.name, ms: ms, below: []string{"produce." + side.name}},
			rung{name: "produce." + side.name, ms: l.values["workload.produce_ms."+side.name+".q6"]})
	}
	self := rungSelf(rungs)
	l.put("core.self_ms.q6", self["run"])
	l.put("sim.self_ms.row.q6", self["row"])
	l.put("sim.self_ms.vec.q6", self["vec"])

	// Span collection on the batch: host time with "trace": true over
	// without. Guards the EXPLAIN work against taxing untraced runs.
	traced := reqs[len(reqs)-1]
	traced.Trace = true
	tracedMS := l.medianMS("txn", "core.run.txn.traced", 5, func() error {
		_, err := r.Run(ctx, traced)
		return err
	})
	l.put("obs.trace_overhead_x.txn", tracedMS/l.values["core.run_ms.txn"])
	return nil
}

// rungsServer times the HTTP layer: round trips of the q13 and batch
// requests against in-process Runner.Run of the same requests on the
// server's own runner (the difference is the server's self time — two
// noisy numbers subtracted, so expect it to straddle zero), and the
// control-plane endpoints, which are all server.
func rungsServer(l *ladder) error {
	s, err := startServer(core.TestScale())
	if err != nil {
		return err
	}
	defer s.close()
	ctx := context.Background()
	runner := s.srv.Runner()

	pair := func(kind string, reps int, served func() error, direct core.Request) {
		var viaHTTP, inProc []float64
		for i := 0; i < reps; i++ {
			viaHTTP = append(viaHTTP, l.time(0, kind, "server.roundtrip."+kind, served).ms())
			inProc = append(inProc, l.time(0, kind, "server.direct."+kind, func() error {
				_, err := runner.Run(ctx, direct)
				return err
			}).ms())
		}
		self := rungSelf([]rung{
			{name: "http", ms: median(viaHTTP), below: []string{"run"}},
			{name: "run", ms: median(inProc)},
		})
		l.put("server.self_ms."+kind, self["http"])
	}
	q13 := vecQuery(13, l.seed)
	q13Core, err := q13.ToCore()
	if err != nil {
		return err
	}
	batch := txnBatch(l.seed)
	batchCore, err := batch.ToCore()
	if err != nil {
		return err
	}
	if _, err := s.query(q13); err != nil { // loads the server's database
		return err
	}
	pair("query", 3, func() error { _, err := s.query(q13); return err }, q13Core)
	pair("txn", 8, func() error { _, err := s.txn(batch); return err }, batchCore)

	// A request that fails validation: decode, validate, encode the error.
	bad := api.QueryRequest{Query: 99, Seed: l.seed}
	ms := l.medianMS("control", "server.invalid_400", 200, func() error {
		return s.do("POST", "/v1/query", bad, http.StatusBadRequest, nil)
	})
	l.put("server.invalid_400_us", ms*1e3)

	// Polling a finished job: mux, job store, encoding a full result.
	var job api.Job
	async := batch
	async.Async = true
	s.admitted.Add(1)
	if err := s.do("POST", "/v1/txn", async, http.StatusAccepted, &job); err != nil {
		return err
	}
	id := job.ID
	for job.Status != "done" {
		if job.Status == "error" {
			return fmt.Errorf("job %s: %s", id, job.Error)
		}
		runtime.Gosched()
		if err := s.do("GET", "/v1/jobs/"+id, nil, http.StatusOK, &job); err != nil {
			return err
		}
	}
	ms = l.medianMS("control", "server.job_poll", 200, func() error {
		return s.do("GET", "/v1/jobs/"+id, nil, http.StatusOK, &job)
	})
	l.put("server.job_poll_us", ms*1e3)

	ms = l.medianMS("control", "server.metrics_scrape", 50, func() error {
		_, err := s.counter("dbserver_requests_total")
		return err
	})
	l.put("server.metrics_scrape_us", ms*1e3)

	rejects, err := s.counter("dbserver_admission_rejects_total")
	if err != nil {
		return err
	}
	l.put("server.admission_rejects", rejects)
	return s.reconcile()
}
