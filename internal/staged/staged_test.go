package staged

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/trace"
)

func buildTable(t *testing.T) (*engine.DB, *engine.Table) {
	t.Helper()
	db := engine.NewDB(engine.Config{ArenaBytes: 32 << 20})
	tb, err := db.CreateTable("fact", engine.Schema{
		engine.Int("id"), engine.Int("grp"), engine.Float("amount"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		_, err := tb.Insert(nil, []engine.Value{
			engine.IV(int64(i)), engine.IV(int64(i % 5)), engine.FV(float64(i%100) / 10),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, tb
}

// referenceGroups computes the expected grp->sum(amount) for id < 8000.
func referenceGroups() map[uint64]float64 {
	out := map[uint64]float64{}
	for i := 0; i < 10000; i++ {
		if int64(i) < 8000 {
			out[uint64(i%5)] += float64(i%100) / 10
		}
	}
	return out
}

func pipelineFor(db *engine.DB, tb *engine.Table, ctx *engine.Ctx) *Pipeline {
	preds := []engine.Pred{engine.PredInt(0, engine.LT, 8000)}
	return &Pipeline{
		DB:     db,
		Source: &engine.SeqScan{Table: tb},
		Stages: []Stage{FilterStage(db, tb.Schema, preds)},
		Sink:   NewAggSink(ctx, db, tb.Schema, 1, 2),
	}
}

func checkGroups(t *testing.T, got map[uint64]float64) {
	t.Helper()
	want := referenceGroups()
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-6 {
			t.Fatalf("group %d = %v, want %v", k, got[k], w)
		}
	}
}

func TestAffinityMatchesVolcano(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 0, 8<<20)
	pl := pipelineFor(db, tb, ctx)
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("affinity absorbed %d rows, want 8000", n)
	}
	checkGroups(t, pl.Sink.(*AggSink).Groups())
}

func TestParallelMatchesAffinity(t *testing.T) {
	db, tb := buildTable(t)
	pl := pipelineFor(db, tb, db.NewCtx(nil, 3, 8<<20))
	ctxs := []*engine.Ctx{
		db.NewCtx(nil, 0, 8<<20),
		db.NewCtx(nil, 1, 8<<20),
		db.NewCtx(nil, 2, 8<<20),
	}
	n, err := pl.RunParallel(ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8000 {
		t.Fatalf("parallel absorbed %d rows, want 8000", n)
	}
	checkGroups(t, pl.Sink.(*AggSink).Groups())
}

// TestParallelConsumerPanic: every consumer's transform panics on its
// first row, so the packets they hold never come back to the free ring and
// the source, with far more packets to fill than the ring has, would wait
// for one for ever. The panic stops the source and comes back as a
// *par.PanicError once every worker has returned.
func TestParallelConsumerPanic(t *testing.T) {
	db, tb := buildTable(t)
	pl := pipelineFor(db, tb, db.NewCtx(nil, 4, 8<<20))
	pl.BatchRows = 64
	pl.Stages = append(pl.Stages, Stage{Name: "boom", Out: tb.Schema, Fn: func() Transform {
		return func(*engine.Ctx, []byte, func([]byte)) { panic("transform panicked") }
	}})
	ctxs := make([]*engine.Ctx, len(pl.Stages)+2)
	for i := range ctxs {
		ctxs[i] = db.NewCtx(nil, i, 8<<20)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pl.RunParallel(ctxs)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatal("RunParallel has not returned: the source waits for a packet no consumer will free")
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Value != "transform panicked" || !strings.Contains(string(pe.Stack), "TestParallelConsumerPanic") {
		t.Fatalf("got %v, want the transform's panic as a *par.PanicError", err)
	}
}

func TestParallelContextCountValidated(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 0, 8<<20)
	pl := pipelineFor(db, tb, ctx)
	if _, err := pl.RunParallel([]*engine.Ctx{ctx}); err == nil {
		t.Fatal("wrong context count accepted")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	work := mem.NewArena(mem.WorkBase, 1<<20)
	p := NewPacket(work, 16, 24)
	row := make([]byte, 24)
	for i := 0; i < 16; i++ {
		row[0] = byte(i)
		if !p.Append(nil, row) {
			t.Fatalf("append %d failed", i)
		}
	}
	if p.Append(nil, row) {
		t.Fatal("append past capacity succeeded")
	}
	for i := 0; i < 16; i++ {
		if got := p.Row(nil, i); got[0] != byte(i) {
			t.Fatalf("row %d = %d", i, got[0])
		}
	}
	p.Reset()
	if p.N() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPacketAddressesRecycle(t *testing.T) {
	// Affinity mode's locality comes from packets reusing the same
	// simulated addresses; verify the trace footprint stays bounded.
	db, tb := buildTable(t)
	rec, s := trace.Pipe()
	lines := map[mem.Addr]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			r, ok := s.Next()
			if !ok {
				return
			}
			// Workspace region only.
			if r.Kind() != trace.Exec && r.Addr() >= mem.WorkBase {
				lines[r.Addr().Line()] = true
			}
		}
	}()
	ctx := db.NewCtx(rec, 0, 8<<20)
	pl := pipelineFor(db, tb, ctx)
	pl.BatchRows = 64
	if _, err := pl.RunAffinity(ctx); err != nil {
		t.Fatal(err)
	}
	rec.Close()
	<-done
	// Two packets of 64 rows x 24B plus agg table: well under 64KB; with
	// 10000 rows flowing through, unbounded allocation would be ~240KB+.
	if len(lines)*64 > 48<<10 {
		t.Fatalf("affinity workspace footprint %d bytes; packets not recycled?", len(lines)*64)
	}
}

func TestProjectStage(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 0, 8<<20)
	pl := &Pipeline{
		DB:     db,
		Source: &engine.SeqScan{Table: tb},
		Stages: []Stage{ProjectStage(db, tb.Schema, []int{1, 2})},
		Sink:   NewAggSink(ctx, db, tb.Schema.Project([]int{1, 2}), 0, 1),
	}
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("projected %d rows", n)
	}
	groups := pl.Sink.(*AggSink).Groups()
	if len(groups) != 5 {
		t.Fatalf("%d groups after project", len(groups))
	}
}

func TestCountSink(t *testing.T) {
	db, tb := buildTable(t)
	ctx := db.NewCtx(nil, 0, 8<<20)
	pl := &Pipeline{
		DB:     db,
		Source: &engine.SeqScan{Table: tb},
		Sink:   NewCountSink(db),
	}
	n, err := pl.RunAffinity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("counted %d", n)
	}
}

func TestBatchSizingDefaultsToL1Fraction(t *testing.T) {
	pl := &Pipeline{}
	if b := pl.batch(64); b != (32<<10)/64 {
		t.Fatalf("batch(64) = %d", b)
	}
	if b := pl.batch(64 << 10); b != 8 {
		t.Fatalf("batch floor = %d", b)
	}
	pl.BatchRows = 99
	if pl.batch(64) != 99 {
		t.Fatal("explicit batch ignored")
	}
}
