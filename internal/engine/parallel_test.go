package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// buildParTable loads a small fact table for parallel-executor tests.
func buildParTable(t *testing.T, rows int) (*DB, *Table) {
	t.Helper()
	db := NewDB(Config{ArenaBytes: 64 << 20})
	tb, err := db.CreateTable("fact", Schema{
		Int("id"), Int("grp"), Float("amount"),
	}, storage.NSM)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, err := tb.Insert(nil, []Value{
			IV(int64(i)), IV(int64(i % 7)), FV(float64(i%100) / 4),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

func workerCtxs(db *DB, n int) []*Ctx {
	ctxs := make([]*Ctx, n)
	for w := 0; w < n; w++ {
		ctxs[w] = db.NewCtx(nil, 40+w, 16<<20)
	}
	return ctxs
}

func TestWorkPoolDrainsEverything(t *testing.T) {
	p := NewWorkPool[int](4)
	const items = 1000
	for i := 0; i < items; i++ {
		p.Push(i%4, i)
	}
	p.Close()
	seen := make([]bool, items)
	for w := 0; w < 4; w++ {
		for {
			v, ok := p.Take(w)
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("item %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d lost", i)
		}
	}
}

func TestWorkPoolStealsFromLoadedVictim(t *testing.T) {
	p := NewWorkPool[int](2)
	p.Push(0, 1)
	p.Push(0, 2)
	// Worker 1 has nothing of its own: it must steal worker 0's OLDEST item.
	v, ok := p.TryTake(1)
	if !ok || v != 1 {
		t.Fatalf("steal got (%d, %v), want oldest item 1", v, ok)
	}
	// Worker 0 pops its own NEWEST item.
	v, ok = p.TryTake(0)
	if !ok || v != 2 {
		t.Fatalf("own pop got (%d, %v), want newest item 2", v, ok)
	}
}

// TestWorkPoolHammer drives pushes, takes, and steals from many
// goroutines at once; under -race it is the data-race check the
// work-stealing queue must pass.
func TestWorkPoolHammer(t *testing.T) {
	const workers = 8
	const perWorker = 2000
	p := NewWorkPool[int](workers)
	var produced sync.WaitGroup
	for w := 0; w < workers; w++ {
		produced.Add(1)
		go func(w int) {
			defer produced.Done()
			for i := 0; i < perWorker; i++ {
				p.Push(w, w*perWorker+i)
			}
		}(w)
	}
	go func() {
		produced.Wait()
		p.Close()
	}()

	var got atomic.Int64
	var sum atomic.Int64
	var consumed sync.WaitGroup
	for w := 0; w < workers; w++ {
		consumed.Add(1)
		go func(w int) {
			defer consumed.Done()
			for {
				v, ok := p.Take(w)
				if !ok {
					return
				}
				got.Add(1)
				sum.Add(int64(v))
			}
		}(w)
	}
	consumed.Wait()
	total := int64(workers * perWorker)
	if got.Load() != total {
		t.Fatalf("consumed %d items, want %d", got.Load(), total)
	}
	wantSum := total * (total - 1) / 2
	if sum.Load() != wantSum {
		t.Fatalf("item sum %d, want %d (lost or duplicated work)", sum.Load(), wantSum)
	}
}

func TestMorselPoolCoversAllPages(t *testing.T) {
	for _, pages := range []int{0, 1, 15, 16, 17, 100} {
		pool := NewMorselPool(3, pages, 16)
		covered := make([]int, pages)
		for w := 0; w < 3; w++ {
			for {
				m, ok := pool.Next(w)
				if !ok {
					break
				}
				for i := m.Lo; i < m.Hi; i++ {
					covered[i]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("pages=%d: page %d covered %d times", pages, i, c)
			}
		}
	}
}

// TestMorselPoolClaimedClosesWithLastMorsel: the channel that tells a paced
// claimer its turn no longer matters is closed by the claim that takes the
// last morsel — whoever makes it, with fewer morsels than workers too — and
// from the start for a table without pages.
func TestMorselPoolClaimedClosesWithLastMorsel(t *testing.T) {
	isClosed := func(p *MorselPool) bool {
		select {
		case <-p.Claimed():
			return true
		default:
			return false
		}
	}
	for _, tc := range []struct{ workers, pages, morsels int }{
		{4, 0, 0}, {4, 5, 1}, {4, 32, 2}, {2, 100, 7},
	} {
		p := NewMorselPool(tc.workers, tc.pages, 16)
		for claim := 0; claim < tc.morsels; claim++ {
			if isClosed(p) {
				t.Fatalf("%d workers, %d pages: closed with %d of %d morsels claimed", tc.workers, tc.pages, claim, tc.morsels)
			}
			// The last worker claims everything: its own share, then stolen.
			if _, ok := p.Next(tc.workers - 1); !ok {
				t.Fatalf("%d workers, %d pages: claim %d of %d found nothing", tc.workers, tc.pages, claim+1, tc.morsels)
			}
		}
		if !isClosed(p) {
			t.Fatalf("%d workers, %d pages: open after all %d morsels were claimed", tc.workers, tc.pages, tc.morsels)
		}
		if _, ok := p.Next(0); ok {
			t.Fatalf("%d workers, %d pages: a morsel beyond the %d", tc.workers, tc.pages, tc.morsels)
		}
	}
}

// TestMorselScanClaimsAtConsumerPace: two traced workers share a pool; the
// consumer of their traces runs worker 1's to its end before it looks at
// worker 0's, so worker 1 scans the whole table — its own morsels and worker
// 0's, stolen — whichever asked first, and worker 0, released when the last
// morsel went, finds nothing.
func TestMorselScanClaimsAtConsumerPace(t *testing.T) {
	db, tb := buildParTable(t, 20000)
	pool := NewMorselPool(2, tb.Heap.NumPages(), 4)
	var streams [2]*trace.Stream
	var rows [2]int
	var wg sync.WaitGroup
	start := func(w int) {
		rec, s := trace.Pipe()
		streams[w] = s
		ctx := db.NewCtx(rec, 40+w, 16<<20)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms := &MorselScanVec{Table: tb, Pool: pool, Worker: w}
			if err := RunVec(ctx, ms, func(blk *Block) error { rows[w] += blk.N(); return nil }); err != nil {
				t.Error(err)
			}
			rec.Close()
		}()
	}
	start(0)
	start(1)
	for _, w := range []int{1, 0} {
		for {
			if _, ok := streams[w].Next(); !ok {
				break
			}
		}
	}
	wg.Wait()
	if rows[0] != 0 || rows[1] != 20000 {
		t.Errorf("worker 0 scanned %d rows and worker 1 %d, want 0 and 20000", rows[0], rows[1])
	}
}

// quitter says how worker 1's subtree gives up after its first block.
type quitter int

const (
	staysOn quitter = iota
	returnsError
	panics
)

func (q quitter) String() string { return [...]string{"stays on", "fails", "panics"}[q] }

// failingVec hands on its child's blocks until it has passed after of them,
// then fails or panics.
type failingVec struct {
	VecOp
	after int
	how   quitter
}

var errWorkerGaveUp = errors.New("worker gave up")

func (f *failingVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if f.after == 0 {
		if f.how == panics {
			panic("worker panicked")
		}
		return nil, false, errWorkerGaveUp
	}
	f.after--
	return f.VecOp.NextBlock(ctx)
}

// joinAgg counts the rows of the parallel join of probe ⋈ build on column
// 0 by the probe's column 1: the workers build the join, then aggregate
// their probes.
func joinAgg(ctxs []*Ctx, probe, build func(w int) VecOp) *ParallelAgg {
	j := parallelJoin(ctxs, probe, build, Inner, JoinAuto)
	return &ParallelAgg{
		Ctxs: ctxs, Join: j, BuildVec: func(w int) VecOp { return j.Joins[w] },
		GroupCols: []int{1}, Aggs: []AggSpec{{Func: Count, Name: "n"}}, Expected: 16,
	}
}

// TestWorkerGivingUpReleasesPacedPeers: four traced workers run a parallel
// plan on a simulated chip, and one of them stops before the pool is
// exhausted — its aggregated subtree, its share of a join's build or its
// probe fails or panics. Its thread runs dry and the simulator waits for
// it, so peers waiting for a paced claim must be released (Unpace) or
// nobody moves again: the plan returns what the quitter returned (a panic
// as a *par.PanicError), and the simulation ends.
func TestWorkerGivingUpReleasesPacedPeers(t *testing.T) {
	db, tb := buildParTable(t, 20000)
	const workers = 4
	// scan is worker w's morsel scan of tb; worker 1's quits after one block.
	scan := func(pool *MorselPool, how quitter) func(w int) VecOp {
		return func(w int) VecOp {
			ms := &MorselScanVec{Table: tb, Pool: pool, Worker: w}
			if how != staysOn && w == 1 {
				return &failingVec{VecOp: ms, after: 1, how: how}
			}
			return ms
		}
	}
	newPool := func() *MorselPool { return NewMorselPool(workers, tb.Heap.NumPages(), 2) }
	plans := []struct {
		name  string
		quits []quitter
		query func(ctxs []*Ctx, how quitter) error
	}{
		{"agg subtree", []quitter{returnsError, panics}, func(ctxs []*Ctx, how quitter) error {
			return Run(ctxs[0], &ParallelAgg{
				Ctxs: ctxs, BuildVec: scan(newPool(), how),
				GroupCols: []int{1}, Aggs: []AggSpec{{Func: Count, Name: "n"}}, Expected: 16,
			}, nil)
		}},
		{"join build subtree", []quitter{returnsError, panics}, func(ctxs []*Ctx, how quitter) error {
			return Run(ctxs[0], joinAgg(ctxs, scan(newPool(), staysOn), scan(newPool(), how)), nil)
		}},
		{"join probe subtree", []quitter{returnsError, panics}, func(ctxs []*Ctx, how quitter) error {
			return Run(ctxs[0], joinAgg(ctxs, scan(newPool(), how), scan(newPool(), staysOn)), nil)
		}},
	}
	for _, plan := range plans {
		for _, how := range plan.quits {
			name := fmt.Sprintf("%s, worker 1 %v", plan.name, how)
			chip := sim.NewChip(sim.Config{Camp: sim.FatCamp, Cores: workers,
				Hier: cache.Config{L2Size: 1 << 20, L2Lat: 10, SharedL2: true}})
			recs := make([]*trace.Recorder, workers)
			ctxs := make([]*Ctx, workers)
			for w := range ctxs {
				rec, s := trace.Pipe()
				recs[w] = rec
				chip.AddThread(s)
				ctxs[w] = db.NewCtx(rec, 40+w, 16<<20)
			}
			errc := make(chan error, 1)
			go func() {
				err := plan.query(ctxs, how)
				for _, rec := range recs {
					rec.Close()
				}
				errc <- err
			}()
			simulated := make(chan struct{})
			go func() {
				chip.Run(1 << 34)
				close(simulated)
			}()
			select {
			case <-simulated:
			case <-time.After(time.Minute):
				t.Fatalf("%s: the simulation has not ended: workers wait for grants the simulator cannot give", name)
			}
			err := <-errc
			var pe *par.PanicError
			switch {
			case how == returnsError && !errors.Is(err, errWorkerGaveUp),
				how == panics && (!errors.As(err, &pe) || pe.Value != "worker panicked"):
				t.Errorf("%s: plan returned %v", name, err)
			}
		}
	}
}

// aggRows runs a grouped aggregate (serial when workers == 0) and returns
// rows decoded and sorted by group key.
func aggRows(t *testing.T, db *DB, tb *Table, workers int) [][]Value {
	t.Helper()
	specs := []AggSpec{
		{Func: Sum, Col: 2, Name: "sum_amount"},
		{Func: Count, Name: "n"},
		{Func: Avg, Col: 2, Name: "avg_amount"},
		{Func: Min, Col: 2, Name: "min_amount"},
		{Func: Max, Col: 2, Name: "max_amount"},
	}
	var op Op
	if workers == 0 {
		op = &HashAgg{
			Child:     &SeqScan{Table: tb},
			GroupCols: []int{1},
			Aggs:      specs,
			Expected:  16,
		}
	} else {
		ctxs := workerCtxs(db, workers)
		pool := NewMorselPool(workers, tb.Heap.NumPages(), 4)
		op = &ParallelAgg{
			Ctxs: ctxs,
			BuildVec: func(w int) VecOp {
				return &MorselScanVec{Table: tb, Pool: pool, Worker: w}
			},
			GroupCols: []int{1},
			Aggs:      specs,
			Expected:  16,
		}
	}
	ctx := db.NewCtx(nil, 30, 16<<20)
	rows, err := Collect(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	return rows
}

func TestParallelAggMatchesSerialAcrossWorkerCounts(t *testing.T) {
	db, tb := buildParTable(t, 20000)
	want := aggRows(t, db, tb, 0)
	if len(want) != 7 {
		t.Fatalf("serial groups = %d, want 7", len(want))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got := aggRows(t, db, tb, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d groups, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				w, g := want[i][c], got[i][c]
				if w.Kind != g.Kind {
					t.Fatalf("workers=%d group %d col %d: kind %v vs %v", workers, i, c, g.Kind, w.Kind)
				}
				switch w.Kind {
				case TInt:
					if g.I != w.I {
						t.Fatalf("workers=%d group %d col %d: %d, serial %d", workers, i, c, g.I, w.I)
					}
				case TFloat:
					if math.Abs(g.F-w.F) > 1e-6*(1+math.Abs(w.F)) {
						t.Fatalf("workers=%d group %d col %d: %v, serial %v", workers, i, c, g.F, w.F)
					}
				}
			}
		}
	}
}

// joinCounts builds two tables with a known match structure and joins
// them, returning per-key output counts.
func joinCounts(t *testing.T, jt JoinType, workers int) map[int64]int {
	t.Helper()
	db := NewDB(Config{ArenaBytes: 64 << 20})
	left, err := db.CreateTable("probe", Schema{Int("k"), Int("tag")}, storage.NSM)
	if err != nil {
		t.Fatal(err)
	}
	right, err := db.CreateTable("build", Schema{Int("k"), Float("v")}, storage.NSM)
	if err != nil {
		t.Fatal(err)
	}
	// Probe keys 0..2999; build holds keys 0..1999, duplicated for k%5==0.
	for i := 0; i < 3000; i++ {
		if _, err := left.Insert(nil, []Value{IV(int64(i)), IV(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := right.Insert(nil, []Value{IV(int64(i)), FV(float64(i))}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := right.Insert(nil, []Value{IV(int64(i)), FV(float64(-i))}); err != nil {
				t.Fatal(err)
			}
		}
	}

	counts := map[int64]int{}
	if workers == 0 {
		j := &HashJoin{
			Left:    &SeqScan{Table: left},
			Right:   &SeqScan{Table: right},
			LeftCol: 0, RightCol: 0,
			Type: jt,
		}
		ctx := db.NewCtx(nil, 30, 16<<20)
		if err := Run(ctx, j, func(row []byte) error {
			counts[RowInt(row, 0)]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return counts
	}

	ctxs := workerCtxs(db, workers)
	probePool := NewMorselPool(workers, left.Heap.NumPages(), 4)
	buildPool := NewMorselPool(workers, right.Heap.NumPages(), 4)
	j := parallelJoin(ctxs,
		func(w int) VecOp { return &MorselScanVec{Table: left, Pool: probePool, Worker: w} },
		func(w int) VecOp { return &MorselScanVec{Table: right, Pool: buildPool, Worker: w} },
		jt, JoinAuto)
	rows, err := probeRows(db.NewCtx(nil, 30, 16<<20), j)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		counts[RowInt(row, 0)]++
	}
	return counts
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	for _, jt := range []JoinType{Inner, LeftOuter} {
		want := joinCounts(t, jt, 0)
		for _, workers := range []int{1, 2, 4} {
			got := joinCounts(t, jt, workers)
			if len(got) != len(want) {
				t.Fatalf("type=%v workers=%d: %d keys, serial %d", jt, workers, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("type=%v workers=%d: key %d count %d, serial %d", jt, workers, k, got[k], n)
				}
			}
		}
	}
}
