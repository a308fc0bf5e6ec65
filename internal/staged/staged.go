// Package staged implements the staged database system design of the
// paper's Section 6.3 (Harizopoulos & Ailamaki's StagedDB / QPipe line):
// query work is decomposed into stages that exchange packets — batches of
// tuples in the simulated address space — instead of executing one
// monolithic operator tree per request.
//
// Two executors realize the two scheduling policies the paper discusses.
// Both are thin policies over the shared cohort/quantum core in
// internal/sched — the same substrate that drives the STEPS-style staged
// OLTP executor — where each in-flight packet is a continuation whose
// steps are charged against per-stage code segments:
//
//   - RunAffinity: producer and consumer stages share one hardware context
//     (STEPS-style cohort scheduling). A stage processes a whole packet
//     before yielding, so its instruction footprint stays L1I-resident,
//     and packets are sized to fit the L1D, so the consumer reads what the
//     producer just wrote at L1 cost.
//
//   - RunParallel: packets are driven through the engine's work-stealing
//     worker pool. One worker produces packets from the source; the rest
//     each drive the stage chain over the packets they claim, every
//     worker with its own hardware context (its own trace stream) and so
//     its own core. Packets travel between cores through the shared L2,
//     trading data locality for true intra-query parallelism.
//
// Comparing monolithic Volcano execution against these two modes
// regenerates the paper's "opportunities" discussion quantitatively.
package staged

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Packet IS the engine's vectorized batch type: staged pipelines exchange
// the same arena-backed row blocks that serial, morsel-parallel, and
// shared-scan execution use, so a stage boundary never re-materializes
// rows into a different layout. Page decode happens exactly once, in the
// vectorized source (ScanVec or a shared-scan rotation) that fills the
// block; every stage downstream sees decoded rows and touches only the
// block's bytes.
type Packet = engine.Block

// NewPacket allocates a packet of capacity rows from work.
func NewPacket(work *mem.Arena, capRows, rowW int) *Packet {
	return engine.NewBlock(work, capRows, rowW)
}

// Transform is one stage's per-row work: it may emit zero or more output
// rows. Implementations trace their own instruction and data costs.
type Transform func(ctx *engine.Ctx, row []byte, emit func([]byte))

// Stage is a middle pipeline stage. Fn is a factory: each worker
// instantiates its own Transform, so transforms may carry private scratch
// buffers without any cross-worker sharing.
type Stage struct {
	Name string
	Out  engine.Schema // output row schema
	Fn   func() Transform
}

// FilterStage builds a stage dropping rows that fail the conjunction.
func FilterStage(db *engine.DB, in engine.Schema, preds []engine.Pred) Stage {
	code := db.Codes.Register("stage:filter", 1536)
	offs := in.Offsets()
	return Stage{
		Name: "filter",
		Out:  in,
		Fn: func() Transform {
			return func(ctx *engine.Ctx, row []byte, emit func([]byte)) {
				ctx.Rec.Exec(code, 10+12*len(preds))
				for _, p := range preds {
					if !p.Eval(in, offs, row) {
						return
					}
				}
				emit(row)
			}
		},
	}
}

// ProjectStage builds a stage narrowing rows to cols.
func ProjectStage(db *engine.DB, in engine.Schema, cols []int) Stage {
	code := db.Codes.Register("stage:project", 1024)
	offs := in.Offsets()
	out := in.Project(cols)
	return Stage{
		Name: "project",
		Out:  out,
		Fn: func() Transform {
			buf := make([]byte, out.RowWidth())
			return func(ctx *engine.Ctx, row []byte, emit func([]byte)) {
				ctx.Rec.Exec(code, 4*len(cols))
				off := 0
				for _, c := range cols {
					w := in[c].Width
					copy(buf[off:off+w], row[offs[c]:offs[c]+w])
					off += w
				}
				emit(buf)
			}
		},
	}
}

// Sink absorbs the pipeline's final rows.
type Sink interface {
	Absorb(ctx *engine.Ctx, row []byte)
	// Rows returns how many rows were absorbed.
	Rows() int
}

// CountSink counts rows (and models a small per-row cost).
type CountSink struct {
	db   *engine.DB
	code mem.CodeSeg
	n    int
}

// NewCountSink builds a counting sink.
func NewCountSink(db *engine.DB) *CountSink {
	return &CountSink{db: db, code: db.Codes.Register("stage:count", 512)}
}

// Absorb implements Sink.
func (s *CountSink) Absorb(ctx *engine.Ctx, _ []byte) {
	ctx.Rec.Exec(s.code, 6)
	s.n++
}

// Rows implements Sink.
func (s *CountSink) Rows() int { return s.n }

// AggSink folds rows into a grouped sum via a workspace hash table.
type AggSink struct {
	db       *engine.DB
	code     mem.CodeSeg
	groupOff int
	sumOff   int
	ht       *engine.HashTable
	n        int
	isFloat  bool
}

// NewAggSink groups by integer column groupCol summing column sumCol. The
// group table grows in ctx's workspace whenever a consumer absorbs a new
// group, under the pipeline's sink lock only: for RunParallel, ctx must not
// be one of the workers' contexts, which allocate their edge packets from
// their own workspaces without that lock.
func NewAggSink(ctx *engine.Ctx, db *engine.DB, in engine.Schema, groupCol, sumCol int) *AggSink {
	offs := in.Offsets()
	return &AggSink{
		db:       db,
		code:     db.Codes.Register("stage:agg", 2048),
		groupOff: offs[groupCol],
		sumOff:   offs[sumCol],
		ht:       engine.NewHashTable(ctx, 1024, 8),
		isFloat:  in[sumCol].Type == engine.TFloat,
	}
}

// Absorb implements Sink.
func (s *AggSink) Absorb(ctx *engine.Ctx, row []byte) {
	ctx.Rec.Exec(s.code, 24)
	key := uint64(engine.RowInt(row, s.groupOff))
	p, at, _ := s.ht.LookupOrInsert(ctx.Rec, key)
	if s.isFloat {
		engine.PutRowFloat(p, 0, engine.RowFloat(p, 0)+engine.RowFloat(row, s.sumOff))
	} else {
		engine.PutRowInt(p, 0, engine.RowInt(p, 0)+engine.RowInt(row, s.sumOff))
	}
	ctx.Rec.Store(at)
	s.n++
}

// Rows implements Sink.
func (s *AggSink) Rows() int { return s.n }

// Groups returns the per-group sums (float-valued view).
func (s *AggSink) Groups() map[uint64]float64 {
	out := make(map[uint64]float64)
	s.ht.Scan(nil, func(k uint64, p []byte) bool {
		if s.isFloat {
			out[k] = engine.RowFloat(p, 0)
		} else {
			out[k] = float64(engine.RowInt(p, 0))
		}
		return true
	})
	return out
}

// Pipeline is a linear staged plan: source → stages → sink. The source
// is a row operator, drained into packets.
type Pipeline struct {
	DB     *engine.DB
	Source engine.Op
	Stages []Stage
	Sink   Sink

	// BatchRows sizes packets; the default fits half a 64 KB L1D.
	BatchRows int
}

func (pl *Pipeline) batch(rowW int) int {
	if pl.BatchRows > 0 {
		return pl.BatchRows
	}
	b := (32 << 10) / rowW
	if b < 8 {
		b = 8
	}
	return b
}

// pipeRun is one worker's execution state for a sched-driven pipeline
// run: a private Transform instance per stage, one reusable edge packet
// per stage, and the sink absorb path (serialized under a lock when the
// sink is shared between pool workers).
type pipeRun struct {
	pl     *Pipeline
	fns    []Transform
	pkts   []*Packet
	absorb func(ctx *engine.Ctx, row []byte)
}

func (pl *Pipeline) newRun(sinkMu *sync.Mutex) *pipeRun {
	fns := make([]Transform, len(pl.Stages))
	for i, st := range pl.Stages {
		fns[i] = st.Fn()
	}
	r := &pipeRun{pl: pl, fns: fns, pkts: make([]*Packet, len(pl.Stages))}
	if sinkMu == nil {
		r.absorb = pl.Sink.Absorb
	} else {
		r.absorb = func(ctx *engine.Ctx, row []byte) {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			pl.Sink.Absorb(ctx, row)
		}
	}
	return r
}

// apply runs stage i over cur into the stage's reusable edge packet,
// grown (doubled, contents preserved) whenever a transform emits more
// rows than fit — Transform's contract allows zero or more output rows
// per input, so an expanding stage must never drop rows.
func (r *pipeRun) apply(ctx *engine.Ctx, i int, cur *Packet) *Packet {
	outW := r.pl.Stages[i].Out.RowWidth()
	need := r.pl.batch(outW)
	if cur.N() > need {
		need = cur.N()
	}
	if r.pkts[i] == nil || r.pkts[i].Cap() < need {
		r.pkts[i] = NewPacket(ctx.Work, need, outW)
	}
	out := r.pkts[i]
	out.Reset()
	for n := 0; n < cur.N(); n++ {
		row := cur.Row(ctx.Rec, n)
		r.fns[i](ctx, row, func(o []byte) {
			if !out.Append(ctx.Rec, o) {
				grown := NewPacket(ctx.Work, 2*out.Cap(), outW)
				grown.CopyFrom(ctx.Rec, out, 0)
				out = grown
				r.pkts[i] = grown
				out.Append(ctx.Rec, o)
			}
		})
	}
	return out
}

// pipeItem is one packet's continuation through the stage chain: kind i
// is stage i, kind len(Stages) is the sink. Pipeline items never park or
// deadlock — the yield machinery of the shared core is exercised only by
// the OLTP policy.
type pipeItem struct {
	run   *pipeRun
	cur   *Packet
	orig  *Packet
	stage int
	free  func(*Packet) // recycles orig after the sink (pool mode)
}

func (it *pipeItem) Kind() int               { return it.stage }
func (it *pipeItem) Fence() bool             { return false }
func (it *pipeItem) ID() uint64              { return 0 }
func (it *pipeItem) Restart(*trace.Recorder) {}

func (it *pipeItem) Step(ctx *engine.Ctx) (sched.Outcome, error) {
	r := it.run
	if it.stage < len(r.fns) {
		it.cur = r.apply(ctx, it.stage, it.cur)
		it.stage++
		return sched.Outcome{}, nil
	}
	for n := 0; n < it.cur.N(); n++ {
		r.absorb(ctx, it.cur.Row(ctx.Rec, n))
	}
	if it.free != nil {
		it.orig.Reset()
		it.free(it.orig)
	}
	return sched.Outcome{Done: true}, nil
}

// cohortConfig maps the pipeline onto the shared cohort core: one kind
// per stage plus the sink, the sink draining in admission order so
// absorb order stays the packet order. The window is one packet per
// worker — packets are already the batching unit (a stage runs over a
// whole packet per step), and the head block is owned by the source, so
// holding several in flight would force copies.
func (pl *Pipeline) cohortConfig() sched.Config {
	code := pl.DB.Codes.Register("sched:pipeline", 2048)
	return sched.Config{
		Window:  1,
		Kinds:   len(pl.Stages) + 1,
		Barrier: len(pl.Stages),
		Overhead: func(rec *trace.Recorder, n int) {
			rec.Exec(code, 30+6*n)
		},
	}
}

// openHead opens the pipeline's source and returns a head-packet feeder
// plus its close function: the source is drained into a reusable head
// packet.
func (pl *Pipeline) openHead(ctx *engine.Ctx) (func() (*Packet, bool, error), func(), error) {
	if err := pl.Source.Open(ctx); err != nil {
		return nil, nil, err
	}
	rowW := pl.Source.Schema().RowWidth()
	head := NewPacket(ctx.Work, pl.batch(rowW), rowW)
	return func() (*Packet, bool, error) {
		head.Reset()
		for head.N() < head.Cap() {
			row, ok, err := pl.Source.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			head.Append(ctx.Rec, row)
		}
		return head, head.N() > 0, nil
	}, func() { pl.Source.Close(ctx) }, nil
}

// RunAffinity executes the pipeline on one worker: each head packet is a
// continuation the shared cohort core drives through every stage kind in
// order, absorbing into the sink, before the next packet is admitted.
// Producer and consumer data stay within one context's L1.
func (pl *Pipeline) RunAffinity(ctx *engine.Ctx) (int, error) {
	nextHead, closeSrc, err := pl.openHead(ctx)
	if err != nil {
		return 0, err
	}
	defer closeSrc()
	run := pl.newRun(nil)
	core := sched.New(pl.cohortConfig())
	if _, err := core.RunFeed(ctx, func() (sched.Item, error) {
		pkt, ok, err := nextHead()
		if err != nil || !ok {
			return nil, err
		}
		return &pipeItem{run: run, cur: pkt, stage: 0}, nil
	}); err != nil {
		return 0, err
	}
	return pl.Sink.Rows(), nil
}

// RunParallel executes the pipeline on the engine's work-stealing worker
// pool with one execution context (and so one trace stream, one hardware
// context) per worker. ctxs must have len(Stages)+2 entries, the same
// placement contract as before: ctxs[0] produces packets from the source
// and deals them to the consumer workers ctxs[1:], each of which claims
// packets from the pool — stealing from overloaded peers — and drives
// them through its own sched-driven stage cohort. Packets recycle
// through a free list, so their addresses stay stable; consumers read
// what the source wrote on another core, which is the shared-L2 traffic
// the paper's staging discussion trades for parallelism.
func (pl *Pipeline) RunParallel(ctxs []*engine.Ctx) (int, error) {
	want := len(pl.Stages) + 2
	if len(ctxs) != want {
		return 0, fmt.Errorf("staged: %d contexts for %d workers", len(ctxs), want)
	}
	consumers := want - 1
	rowW := pl.Source.Schema().RowWidth()

	// Packets live in the source worker's workspace and recycle through
	// the free list (bounding both memory and trace footprint). Two per
	// consumer keeps every consumer busy while the source refills.
	ring := 2 * consumers
	free := make(chan *Packet, ring)
	for k := 0; k < ring; k++ {
		free <- NewPacket(ctxs[0].Work, pl.batch(rowW), rowW)
	}
	pool := engine.NewWorkPool[*Packet](consumers)

	// The sink is shared state: absorption serializes under one lock,
	// traced by whichever consumer absorbed the packet.
	var sinkMu sync.Mutex

	// stop is closed when a consumer fails: the source, which may be
	// waiting for a packet only that consumer would have freed, stops
	// filling, and the other consumers drain what it dealt.
	stop := make(chan struct{})
	var stopOnce sync.Once
	take := func() (*Packet, bool) {
		select {
		case pkt := <-free:
			pkt.Reset()
			return pkt, true
		case <-stop:
			return nil, false
		}
	}

	// Source worker: fill packets, deal them round-robin (stealing
	// rebalances whenever consumers run at different speeds).
	source := func() error {
		defer pool.Close()
		ctx := ctxs[0]
		next := 0
		push := func(pkt *Packet) {
			pool.Push(next, pkt)
			next = (next + 1) % consumers
		}

		if err := pl.Source.Open(ctx); err != nil {
			return err
		}
		defer pl.Source.Close(ctx)
		for {
			pkt, ok := take()
			if !ok {
				return nil
			}
			for pkt.N() < pkt.Cap() {
				row, ok, err := pl.Source.Next(ctx)
				if err != nil {
					free <- pkt
					return err
				}
				if !ok {
					break
				}
				pkt.Append(ctx.Rec, row)
			}
			if pkt.N() == 0 {
				free <- pkt
				return nil
			}
			push(pkt)
		}
	}

	// Consumer workers: each claims packets from the pool and drives them
	// through its own sched cohort (private transforms and edge packets),
	// absorbing into the shared sink under the lock. The feeder blocks in
	// pool.Take, so a consumer sleeps exactly when it has nothing claimed.
	consume := func(c int) error {
		ctx := ctxs[c+1]
		run := pl.newRun(&sinkMu)
		core := sched.New(pl.cohortConfig())
		_, err := core.RunFeed(ctx, func() (sched.Item, error) {
			pkt, ok := pool.Take(c)
			if !ok {
				return nil, nil
			}
			return &pipeItem{
				run: run, cur: pkt, orig: pkt, stage: 0,
				free: func(p *Packet) { free <- p },
			}, nil
		})
		return err
	}

	if err := par.Do(want, func(w int) error {
		if w == 0 {
			return source()
		}
		return consume(w - 1)
	}, func(w int, _ error) {
		if w > 0 {
			stopOnce.Do(func() { close(stop) })
		}
	}); err != nil {
		return 0, err
	}
	return pl.Sink.Rows(), nil
}
