package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/storage"
)

// TestOrderedMorsels: the morsels cover a scan's page order from its
// origin exactly once, in that order, each a contiguous range.
func TestOrderedMorsels(t *testing.T) {
	for _, c := range []struct{ pages, start, size int }{
		{0, 0, 4}, {1, 0, 4}, {10, 0, 4}, {10, 3, 4}, {10, 9, 1}, {10, 23, 16}, {17, 5, 0},
	} {
		var order []int
		for _, m := range orderedMorsels(c.pages, c.start, c.size) {
			if m.Lo >= m.Hi || m.Hi > c.pages || (c.size > 0 && m.Hi-m.Lo > c.size) {
				t.Fatalf("%+v: bad morsel %+v", c, m)
			}
			for p := m.Lo; p < m.Hi; p++ {
				order = append(order, p)
			}
		}
		if len(order) != c.pages {
			t.Fatalf("%+v: %d pages, want %d", c, len(order), c.pages)
		}
		for i, p := range order {
			if want := (c.start + i) % c.pages; p != want {
				t.Fatalf("%+v: page %d is %d, want %d", c, i, p, want)
			}
		}
	}
}

// orderedPipe filters on grp and maps each row to (id, val*2): the
// shape of a native plan's pipe.
func orderedPipe(in VecOp) VecOp {
	f := &FilterVec{Child: in, Preds: []Pred{PredInt(1, LE, 4)}}
	return &MapVec{Child: f, Out: Schema{Int("id"), Float("v")}, Fn: func(in, out []byte) {
		PutRowInt(out, 0, RowInt(in, 0))
		PutRowFloat(out, 8, RowFloat(in, 16)*2)
	}}
}

// TestOrderedExchangeSerialOrder: the exchange hands its consumer the rows
// the same pipe over a serial ScanVec from the same origin emits, in that
// order, at 1 to 8 workers, copying and borrowing pages, on NSM and PAX.
// The workers' workspaces are small enough that their output outgrows
// them.
func TestOrderedExchangeSerialOrder(t *testing.T) {
	db := testDB(t)
	for _, layout := range []storage.Layout{storage.NSM, storage.PAXLayout} {
		tb := mkTable(t, db, layout, 5000)
		ctx := testCtx(t, db)
		for _, borrow := range []bool{false, true} {
			for _, start := range []int{0, 5} {
				ctx.Work.Reset()
				want := collectBytes(t, ctx, &RowAdapter{Vec: orderedPipe(&ScanVec{Table: tb, StartPage: start, Borrow: borrow})})
				for _, workers := range []int{1, 2, 3, 8} {
					ctx.Work.Reset()
					x := &OrderedExchange{
						Ctxs: ctx.Workers(workers, 96<<10), Table: tb, StartPage: start, MorselPages: 2,
						Borrow: borrow, Pipe: orderedPipe,
					}
					label := fmt.Sprintf("%v borrow=%v start=%d x%d", layout, borrow, start, workers)
					sameBytes(t, label, collectBytes(t, ctx, &RowAdapter{Vec: x}), want)
					if n := ctx.Leases(); n != 0 {
						t.Fatalf("%s: %d page leases outstanding", label, n)
					}
				}
			}
		}
	}
}

// faultVec passes its child's blocks through and fails, or panics, on
// the call after the one that passed the at-th block of the exchange: its
// scan then still holds that block's page.
type faultVec struct {
	VecOp
	seen   *atomic.Int64
	at     int64
	panics bool
	armed  bool
}

func (f *faultVec) NextBlock(ctx *Ctx) (*Block, bool, error) {
	if f.armed {
		if f.panics {
			panic("fault")
		}
		return nil, false, errBoom
	}
	blk, ok, err := f.VecOp.NextBlock(ctx)
	f.armed = ok && f.seen.Add(1) == f.at
	return blk, ok, err
}

// TestOrderedExchangeLeavesNothing: after a run that succeeds, one whose
// worker fails, one whose worker panics and one whose consumer stops
// early, no context holds a page lease and every goroutine the exchange
// started has ended.
func TestOrderedExchangeLeavesNothing(t *testing.T) {
	db := testDB(t)
	tb := mkTable(t, db, storage.NSM, 5000)
	ctx := testCtx(t, db)
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name      string
		at        int64 // the block after which a worker fails, 0 for none
		panics    bool
		stopAfter int // blocks the consumer takes before it stops, 0 for all
		want      func(error) bool
	}{
		{name: "success", want: func(err error) bool { return err == nil }},
		{name: "worker error", at: 7, want: func(err error) bool { return errors.Is(err, errBoom) }},
		{name: "worker panic", at: 7, panics: true, want: func(err error) bool {
			var pe *par.PanicError
			return errors.As(err, &pe)
		}},
		{name: "consumer stops", stopAfter: 3, want: func(err error) bool { return errors.Is(err, errBoom) }},
	} {
		for _, workers := range []int{2, 4} {
			ctx.Work.Reset()
			var seen atomic.Int64
			x := &OrderedExchange{
				Ctxs: ctx.Workers(workers, 1<<20), Table: tb, MorselPages: 1, Borrow: true,
				Pipe: func(in VecOp) VecOp {
					return &faultVec{VecOp: &FilterVec{Child: in, Preds: []Pred{PredInt(1, LE, 4)}}, seen: &seen, at: c.at, panics: c.panics}
				},
			}
			taken := 0
			err := RunVec(ctx, x, func(*Block) error {
				if taken++; taken == c.stopAfter {
					return errBoom
				}
				return nil
			})
			label := fmt.Sprintf("%s x%d", c.name, workers)
			if !c.want(err) {
				t.Fatalf("%s: error %v", label, err)
			}
			if n := ctx.Leases(); n != 0 {
				t.Fatalf("%s: %d page leases outstanding", label, n)
			}
			if n := db.Pool.Leases(); n != 0 {
				t.Fatalf("%s: %d pool leases outstanding", label, n)
			}
			// A joined goroutine may not have left the scheduler's count yet.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s: %d goroutines, %d before", label, n, base)
			}
		}
	}
}
