package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/oltp"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The micro rungs: one layer each, fixed inputs, nil recorders unless
// the rung is about the trace itself. Throughputs are of host time.

// dbs are the databases the rung groups share, built (and timed) once by
// rungsBuilds: the test scale the served workloads use and the full
// scale the native one uses.
type dbs struct {
	test, full *workload.TPCH
}

func (l *ladder) params() workload.QueryParams {
	return workload.RandomParams(rand.New(rand.NewSource(l.seed)))
}

// mPerSec converts a count done in ms milliseconds into millions per second.
func mPerSec(count int, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(count) / ms / 1e3
}

// drain consumes a trace stream to its end, as a simulator would, and
// returns how many records it carried.
func drain(s *trace.Stream) int {
	records := 0
	for {
		chunk, ok, _ := s.RecvChunk(-1)
		if !ok {
			return records
		}
		records += len(chunk)
	}
}

// batchRun loads a fresh test-scale TPC-C database, as every side of a
// served batch does, and returns a func that executes the batch's
// programs on the monolithic or the cohort executor against rec (nil:
// no trace).
func batchRun(batch api.TxnRequest, cohorted bool, rec *trace.Recorder) (func() (oltp.Stats, error), error) {
	w, err := workload.BuildTPCC(core.TestScale().TPCC)
	if err != nil {
		return nil, err
	}
	ins := w.StagedInputsMix(batch.Clients, batch.Txns, batch.Seed, batch.RemotePct)
	progs := w.StagedPrograms(ins, cohorted)
	ctx := w.DB.NewCtx(rec, 0, 8<<20)
	return func() (oltp.Stats, error) {
		if !cohorted {
			return oltp.RunMonolithic(ctx, progs)
		}
		sched := oltp.NewScheduler(w.DB.Codes, oltp.Config{Cohort: batch.Cohort, Generation: w.Mgr.LM.Generation})
		return sched.Run(ctx, progs)
	}, nil
}

func nsPer(ms float64, count int) float64 {
	if count <= 0 {
		return 0
	}
	return ms * 1e6 / float64(count)
}

// rungsHost records the machine and probes its copy bandwidth, the
// ceiling every GB/s figure is a fraction of.
func rungsHost(l *ladder) error {
	l.put("host.nproc", float64(runtime.NumCPU()))
	l.put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	const size = 64 << 20 // beyond any cache of the host
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in
	ms := l.medianMS("host", "host.memcpy", 5, func() error { copy(dst, src); return nil })
	l.put("host.memcpy_gbps", size/ms/1e6)
	return nil
}

// rungsBuilds times the database loads at both scales: the cost behind
// setup_s everywhere and behind every /v1/txn request, which builds a
// fresh TPC-C database per side.
func rungsBuilds(l *ladder, d *dbs) error {
	build := func(name string, scale core.Scale) (*workload.TPCH, error) {
		var h *workload.TPCH
		var err error
		s := l.time(0, "build", "workload.build_tpch."+name, func() error {
			h, err = workload.BuildTPCH(scale.TPCH)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.put("workload.build_tpch_s."+name, s.ms()/1e3)
		s = l.time(0, "build", "workload.build_tpcc."+name, func() error {
			_, err = workload.BuildTPCC(scale.TPCC)
			return err
		})
		l.put("workload.build_tpcc_s."+name, s.ms()/1e3)
		return h, err
	}
	var err error
	if d.test, err = build("test", core.TestScale()); err != nil {
		return err
	}
	d.full, err = build("full", core.FullScale())
	return err
}

// rungsStorage times page decode on the full-scale lineitem heap (about
// four thousand 8 KiB pages): the bulk copy the copying scan does, the
// span test the borrowing scan does, the per-tuple visit the traced scan
// does, page leases, and B+tree point operations.
func rungsStorage(l *ladder, d *dbs) error {
	heap := d.full.DB.MustTable("lineitem").Heap
	pool := d.full.DB.Pool
	stride := heap.RowWidth()
	refs := make([]*storage.PageRef, heap.NumPages())
	pages := make([]storage.Slotted, len(refs))
	for i := range refs {
		ref, err := pool.Get(nil, heap.PageAt(i))
		if err != nil {
			return err
		}
		refs[i], pages[i] = ref, storage.AsSlotted(ref.Data, ref.Addr)
	}
	defer func() {
		for _, r := range refs {
			r.Release()
		}
	}()

	dst := make([]byte, storage.PageSize)
	rows := 0
	ms := l.medianMS("storage", "storage.copy_tuples", 5, func() error {
		rows = 0
		for _, p := range pages {
			n, err := p.CopyTuples(dst, stride)
			if err != nil {
				return err
			}
			rows += n
		}
		if rows != heap.Rows() {
			return fmt.Errorf("copied %d rows, heap holds %d", rows, heap.Rows())
		}
		return nil
	})
	gbps := float64(rows*stride) / ms / 1e6
	l.put("storage.copy_gbps", gbps)
	if m := l.values["host.memcpy_gbps"]; m > 0 {
		l.put("storage.copy_frac_of_memcpy", gbps/m)
	}

	accepted := 0
	ms = l.medianMS("storage", "storage.tuple_span", 5, func() error {
		accepted = 0
		for _, p := range pages {
			if _, _, ok := p.TupleSpan(stride); ok {
				accepted++
			}
		}
		return nil
	})
	l.put("storage.span_ns_per_page", nsPer(ms, len(pages)))
	l.put("storage.borrow_ratio", float64(accepted)/float64(len(pages)))

	ms = l.medianMS("storage", "storage.scan_tuples", 5, func() error {
		seen := 0
		for _, p := range pages {
			p.ScanTuples(nil, func(int, []byte) { seen++ })
		}
		if seen != heap.Rows() {
			return fmt.Errorf("visited %d rows, heap holds %d", seen, heap.Rows())
		}
		return nil
	})
	l.put("storage.scan_ns_per_row", nsPer(ms, heap.Rows()))

	ms = l.medianMS("storage", "storage.lease", 5, func() error {
		for i := range refs {
			ls, err := pool.Lease(nil, heap.PageAt(i))
			if err != nil {
				return err
			}
			ls.Release()
		}
		if n := pool.Leases(); n != 0 {
			return fmt.Errorf("%d leases outstanding", n)
		}
		return nil
	})
	l.put("storage.lease_ns", nsPer(ms, len(refs)))

	// B+tree point operations on a tree of its own: 200 k random keys.
	db := engine.NewDB(engine.Config{ArenaBytes: 64 << 20})
	tree, err := storage.NewBTree(db.Pool, db.Codes, "bench")
	if err != nil {
		return err
	}
	keys := rand.New(rand.NewSource(l.seed)).Perm(200000)
	s := l.time(0, "storage", "storage.btree_insert", func() error {
		for _, k := range keys {
			if err := tree.Insert(nil, int64(k), uint64(k)); err != nil {
				return err
			}
		}
		return nil
	})
	l.put("storage.btree_insert_ns", nsPer(s.ms(), len(keys)))
	s = l.time(0, "storage", "storage.btree_get", func() error {
		for _, k := range keys {
			v, ok, err := tree.Get(nil, int64(k))
			if err != nil {
				return err
			}
			if !ok || v != uint64(k) {
				return fmt.Errorf("key %d: got %d found=%v", k, v, ok)
			}
		}
		return nil
	})
	l.put("storage.btree_get_ns", nsPer(s.ms(), len(keys)))
	return nil
}

// rungsEngine times the native kernels one operator at a time on the
// full-scale tables: the compiled Q6 filter, hash build and probe per
// join mode (100 k orders rows, past the host's L2), aggregation at
// three group counts, and two morsel workers over one.
func rungsEngine(l *ladder, d *dbs) error {
	h := d.full
	li, orders, customer := h.DB.MustTable("lineitem"), h.DB.MustTable("orders"), h.DB.MustTable("customer")
	ctx := h.DB.NewCtx(nil, 91, nativeArena)
	p := l.params()

	// Q6's three-predicate filter over a borrowed scan; the interpreted,
	// compacting path is the reference for the survivor count.
	ls := li.Schema
	filter := func(interpret bool) (int, error) {
		ctx.Work.Reset()
		live := 0
		err := engine.RunVec(ctx, &engine.FilterVec{
			Child: &engine.ScanVec{Table: li, Borrow: !interpret, Interpret: interpret},
			Preds: []engine.Pred{
				engine.PredIntBetween(ls.Col("l_shipdate"), p.Date-365, p.Date),
				engine.PredFloatBetween(ls.Col("l_discount"), p.Discount-0.01, p.Discount+0.01),
				engine.PredFloat(ls.Col("l_quantity"), engine.LT, p.Quantity),
			},
			Compact: interpret, Interpret: interpret,
		}, func(b *engine.Block) error { live += b.Live(); return nil })
		return live, err
	}
	want, err := filter(true)
	if err != nil {
		return err
	}
	ms := l.medianMS("engine", "engine.filter.q6", 5, func() error {
		got, err := filter(false)
		if err == nil && got != want {
			err = fmt.Errorf("%d survivors, interpreted reference %d", got, want)
		}
		return err
	})
	l.put("engine.filter_mrows_per_s.q6", mPerSec(li.Heap.Rows(), ms))

	// Q13's join, build and probe timed apart: Open builds, the drain
	// probes. Every mode must emit the same rows.
	os := orders.Schema
	joinRows := -1
	for _, m := range []engine.JoinMode{engine.JoinChained, engine.JoinPartitioned, engine.JoinPrefetch} {
		var build, probe []float64
		for rep := 0; rep < 3; rep++ {
			ctx.Work.Reset()
			j := &engine.HashJoinVec{
				Probe: &engine.ScanVec{Table: customer, Cols: []int{0}, Borrow: true},
				Build: &engine.ProjectVec{
					Child: &engine.FilterVec{
						Child: &engine.ScanVec{Table: orders, Borrow: true},
						Preds: []engine.Pred{engine.PredInt(os.Col("o_special"), engine.EQ, 0)},
					},
					Cols: []int{os.Col("o_custkey"), os.Col("o_totalprice")},
				},
				ProbeCol: 0, BuildCol: 0, Type: engine.LeftOuter,
				Expected: customer.Heap.Rows(), BuildRows: orders.Heap.Rows(), Mode: m,
			}
			op := "join." + m.String()
			root, done := l.open(0, op, "engine.join")
			b := l.time(root, op, "engine.join.build", func() error { return j.Open(ctx) })
			rows := 0
			pr := l.time(root, op, "engine.join.probe", func() error {
				for {
					blk, ok, err := j.NextBlock(ctx)
					if err != nil || !ok {
						return err
					}
					rows += blk.Live()
				}
			})
			j.Close(ctx)
			done()
			if joinRows < 0 {
				joinRows = rows
			} else if rows != joinRows {
				return fmt.Errorf("join mode %s emitted %d rows, chained %d", m, rows, joinRows)
			}
			build, probe = append(build, b.ms()), append(probe, pr.ms())
		}
		if m != engine.JoinPrefetch { // prefetch probes the chained build
			l.put("engine.join_build_ns_per_row."+m.String(), nsPer(median(build), orders.Heap.Rows()))
		}
		l.put("engine.join_probe_ns_per_row."+m.String(), nsPer(median(probe), customer.Heap.Rows()))
	}
	if n := h.DB.Pool.Leases(); n != 0 {
		return fmt.Errorf("join rungs left %d page leases", n)
	}

	// Aggregation at 6, ~1 k and ~100 k groups over all of lineitem.
	for _, g := range []struct {
		name     string
		cols     []int
		expected int
	}{
		{"g6", []int{ls.Col("l_returnflag"), ls.Col("l_linestatus")}, 8},
		{"g1k", []int{ls.Col("l_suppkey")}, 1 << 10},
		{"g100k", []int{ls.Col("l_orderkey")}, orders.Heap.Rows()},
	} {
		groups := -1
		ms := l.medianMS("engine", "engine.agg."+g.name, 3, func() error {
			ctx.Work.Reset()
			n := 0
			err := engine.RunVec(ctx, &engine.HashAggVec{
				Child:     &engine.ScanVec{Table: li, Borrow: true},
				GroupCols: g.cols,
				Aggs: []engine.AggSpec{
					{Func: engine.Sum, Col: ls.Col("l_quantity"), Name: "qty"},
					{Func: engine.Count, Name: "n"},
				},
				Expected: g.expected,
			}, func(b *engine.Block) error { n += b.Live(); return nil })
			if err == nil && groups >= 0 && n != groups {
				err = fmt.Errorf("%d groups, first run %d", n, groups)
			}
			groups = n
			return err
		})
		l.put("engine.agg_ns_per_row."+g.name, nsPer(ms, li.Heap.Rows()))
	}

	// Two morsel workers over one on Q1 (informational: it can only
	// exceed 1 when the host has a second processor to give).
	ctxs := []*engine.Ctx{h.DB.NewCtx(nil, 92, nativeArena), h.DB.NewCtx(nil, 93, nativeArena)}
	scale := func(workers int) float64 {
		return l.medianMS("engine", fmt.Sprintf("engine.morsel.%dw", workers), 5, func() error {
			for _, c := range ctxs {
				c.Work.Reset()
			}
			_, err := h.RunQueryParallelNative(ctxs[:workers], 1, p, workload.NativeOpts{ZeroCopy: true})
			return err
		})
	}
	one, two := scale(1), scale(2)
	l.put("engine.morsel_scaling_x", one/two)
	return nil
}

// rungsWorkload times whole plans: the traced plans feeding a pipe that
// a counting consumer drains (engine plus recorder, no simulator), which
// also yields the exact trace lengths, and the native plans in their
// three flavours.
func rungsWorkload(l *ladder, d *dbs) error {
	p := l.params()
	for _, q := range []int{6, 1, 13} {
		for _, ex := range []struct {
			name string
			run  func(*engine.Ctx, int, workload.QueryParams) ([][]engine.Value, error)
		}{{"row", d.test.RunQueryRow}, {"vec", d.test.RunQuery}} {
			// The context RunVecDSS uses: worker slot 72, 64 MiB arena.
			rec, stream := trace.Pipe()
			ctx := d.test.DB.NewCtx(rec, 72, nativeArena)
			records := 0
			s := l.time(0, fmt.Sprintf("q%d", q), fmt.Sprintf("workload.produce.%s.q%d", ex.name, q), func() error {
				var wg sync.WaitGroup
				var runErr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer rec.Close()
					_, runErr = ex.run(ctx, q, p)
				}()
				records = drain(stream)
				wg.Wait()
				return runErr
			})
			l.put(fmt.Sprintf("workload.produce_ms.%s.q%d", ex.name, q), s.ms())
			l.put(fmt.Sprintf("trace.records.%s.q%d", ex.name, q), float64(records))
		}
	}

	ctx := d.full.DB.NewCtx(nil, 90, nativeArena)
	for _, q := range []int{6, 1, 13} {
		var digest uint64
		for i, fl := range []struct {
			name string
			opts workload.NativeOpts
			reps int
		}{
			{"interp", workload.NativeOpts{Interpret: true, Compact: true}, 3},
			{"copy", workload.NativeOpts{}, 5},
			{"borrow", workload.NativeOpts{ZeroCopy: true}, 5},
		} {
			ms := l.medianMS(fmt.Sprintf("q%d", q), fmt.Sprintf("workload.native.q%d.%s", q, fl.name), fl.reps, func() error {
				ctx.Work.Reset()
				rows, err := d.full.RunQueryNative(ctx, q, p, fl.opts)
				if err != nil {
					return err
				}
				if got := core.RowsDigest(rows); i == 0 {
					digest = got
				} else if got != digest {
					return fmt.Errorf("digest %#x, interpreted reference %#x", got, digest)
				}
				return nil
			})
			l.put(fmt.Sprintf("workload.native_mrows_per_s.q%d.%s", q, fl.name), mPerSec(d.full.NativeRowsScanned(q), ms))
		}
	}
	if n := d.full.DB.Pool.Leases(); n != 0 {
		return fmt.Errorf("native rungs left %d page leases", n)
	}
	return nil
}

// rungsTraceCache times the hand-off and the memory-hierarchy model on
// synthetic streams: a recorder feeding a draining stream, then loads
// that stay in L1, loads that miss the 26 MB L2, instruction fetches and
// stores.
func rungsTraceCache(l *ladder) error {
	const n = 4 << 20
	rec, stream := trace.Pipe()
	got := 0
	s := l.time(0, "trace", "trace.pipe", func() error {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer rec.Close()
			for i := 0; i < n; i++ {
				rec.Load(mem.Addr(i*8), false)
			}
		}()
		got = drain(stream)
		<-done
		if got != n {
			return fmt.Errorf("received %d of %d records", got, n)
		}
		return nil
	})
	l.put("trace.pipe_mrec_per_s", mPerSec(n, s.ms()))

	cfg := core.DefaultModeCell(core.ModeVecDSS, sim.FatCamp).SimConfig().WithDefaults().Hier
	stream4 := func(name string, span mem.Addr, access func(h *cache.Hierarchy, a mem.Addr, now uint64) cache.Result) float64 {
		h := cache.NewHierarchy(cfg)
		const accesses = 2 << 20
		now := uint64(0)
		// One untimed pass fills whatever the stream can keep resident.
		for a := mem.Addr(0); a < span; a += mem.LineSize {
			now = access(h, a, now).DoneAt
		}
		s := l.time(0, "cache", name, func() error {
			a := mem.Addr(0)
			for i := 0; i < accesses; i++ {
				now = access(h, a, now).DoneAt
				if a += mem.LineSize; a >= span {
					a = 0
				}
			}
			return nil
		})
		return nsPer(s.ms(), accesses)
	}
	read := func(h *cache.Hierarchy, a mem.Addr, now uint64) cache.Result { return h.Read(0, a, now) }
	l.put("cache.read_hit_ns", stream4("cache.read_hit", 16<<10, read))
	l.put("cache.read_miss_ns", stream4("cache.read_miss", 64<<20, read))
	l.put("cache.fetch_ns", stream4("cache.fetch", 16<<10,
		func(h *cache.Hierarchy, a mem.Addr, now uint64) cache.Result { return h.Fetch(0, mem.CodeBase+a, now) }))
	l.put("cache.write_ns", stream4("cache.write", 16<<10,
		func(h *cache.Hierarchy, a mem.Addr, now uint64) cache.Result { return h.Write(0, a, now) }))
	return nil
}

// rungsOLTP runs the benchmark's transaction batch with a nil recorder —
// the same programs the traced request executes, with no simulator — on
// the monolithic and the cohort executor, and times an uncontended lock.
func rungsOLTP(l *ladder) error {
	batch := txnBatch(l.seed)
	run := func(cohorted bool) (oltp.Stats, float64, error) {
		name := "oltp.mono"
		if cohorted {
			name = "oltp.cohort"
		}
		var stats oltp.Stats
		var ms []float64
		for rep := 0; rep < 5; rep++ {
			exec, err := batchRun(batch, cohorted, nil)
			if err != nil {
				return stats, 0, err
			}
			s := l.time(0, "txn", name, func() error {
				stats, err = exec()
				return err
			})
			if err != nil {
				return stats, 0, err
			}
			if want := batch.Clients * batch.Txns; stats.Committed != want {
				return stats, 0, fmt.Errorf("%s committed %d of %d", name, stats.Committed, want)
			}
			ms = append(ms, s.ms())
		}
		return stats, median(ms), nil
	}
	_, monoMS, err := run(false)
	if err != nil {
		return err
	}
	coh, cohMS, err := run(true)
	if err != nil {
		return err
	}
	txns := float64(batch.Clients * batch.Txns)
	l.put("oltp.mono_txn_per_host_s", txns/monoMS*1e3)
	l.put("oltp.cohort_txn_per_host_s", txns/cohMS*1e3)
	l.put("oltp.parks", float64(coh.Parks))
	l.put("oltp.wounds", float64(coh.Wounds))

	codes := mem.NewCodeMap()
	lm := txn.NewLockManager(mem.NewArena(mem.WorkBase, 8<<20), 1<<14, codes)
	const locks = 1 << 20
	s := l.time(0, "txn", "txn.lock", func() error {
		keys := make([]uint64, 1)
		for i := 0; i < locks; i++ {
			keys[0] = uint64(i & 1023)
			if err := lm.Acquire(nil, 1, keys[0], txn.Exclusive); err != nil {
				return err
			}
			lm.ReleaseAll(nil, 1, keys)
		}
		return nil
	})
	l.put("txn.lock_ns", nsPer(s.ms(), locks))
	return nil
}
