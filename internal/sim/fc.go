package sim

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// fcCore models one fat-camp core: a wide out-of-order design running a
// single hardware context. Independent misses overlap up to the MLP limit
// inside the reorder window, so streaming (DSS-style) access patterns hide
// much of their miss latency; dependent loads (index and hash-bucket
// chains, the OLTP pattern) serialize behind the loads that feed them and
// expose it.
//
// Database code's tight dependencies keep a 4-wide machine far from its
// peak issue rate, so FCIssue models the *sustainable* issue rate on
// database code (default 2) rather than the nominal pipeline width — the
// paper's "database workloads exhibit limited ILP".
type fcCore struct {
	id   int
	cfg  *Config
	chip *Chip
	hier *cache.Hierarchy
	ctx  *hwctx

	// The configuration step and coast read on every call, copied out of
	// cfg: the issue rate, the miss-queue and reorder-window limits, and
	// perIssue, which divides by the issue rate (perIssue.of).
	issue    int
	mlp      int
	window   uint64
	perIssue reciprocal

	outstanding   []fcMiss  // in-flight data misses, append order
	firstDone     uint64    // earliest doneAt in outstanding; never when empty
	prevLoadDone  uint64    // completion time of the latest missing load
	prevLoadCause StallKind // stall class of that load's service level
	instrIdx      uint64    // instructions issued, for the window bound

	ahead fetchAhead // the records the last drain fetched ahead
}

// fcMiss is an in-flight data miss.
type fcMiss struct {
	doneAt   uint64
	instrIdx uint64
	cause    StallKind
}

func newFCCore(id int, ch *Chip) *fcCore {
	return &fcCore{
		id: id, cfg: &ch.cfg, chip: ch, hier: ch.hier, ctx: &hwctx{}, firstDone: never,
		issue: ch.cfg.FCIssue, mlp: ch.cfg.MLP, window: uint64(ch.cfg.Window),
		perIssue: newReciprocal(ch.cfg.FCIssue),
	}
}

// reciprocal divides by a fixed d ≥ 1 with a multiply and a shift: it is
// ⌈2⁴⁰/d⌉, and n·⌈2⁴⁰/d⌉ >> 40 = ⌊n/d⌋ whenever n·d < 2⁴⁰ (the rounding
// error n·(⌈2⁴⁰/d⌉ − 2⁴⁰/d)/2⁴⁰ then stays below 1/d); the product fits in
// 64 bits for any n < 2²⁴. drain divides at most maxDrain instructions,
// so any issue rate below 2¹⁹ is exact.
type reciprocal uint64

func newReciprocal(d int) reciprocal { return reciprocal((1<<40 + uint64(d) - 1) / uint64(d)) }

// of returns ⌊n/d⌋ for n ≤ maxDrain.
func (m reciprocal) of(n uint64) uint64 { return n * uint64(m) >> 40 }

// maxDrain bounds the instructions one coast drains.
const maxDrain = 1<<21 - 1

func (c *fcCore) contexts() []*hwctx { return []*hwctx{c.ctx} }

func (c *fcCore) coast(now, end uint64) (uint64, StallKind, int) {
	ctx := c.ctx
	if len(ctx.threads) == 0 {
		return never, KindIdle, 0
	}
	// The common case after a step that issued loads and stores: an
	// awake context with no Exec record to drain is due now, whatever
	// quietUntil and drain would go on to look at.
	if now >= ctx.blockedUntil && ctx.threads[ctx.cur].execLeft <= 0 {
		return now, KindComp, 0
	}
	// A blocked context skips retire and issue, so until it wakes the
	// in-flight misses and the dependence state are not looked at.
	if q := ctx.quietUntil(now); q > now {
		return q, ctx.blockCause, 0
	}
	if n := c.drain(now, end); n > 0 {
		return now + n, KindComp, c.issue
	}
	return now, KindComp, 0
}

// drain counts the cycles from now, short of end, in which step would do
// nothing but issue FCIssue more instructions of the running thread's Exec
// records, and moves the thread and the core past them. The records are
// one instruction stream: the current one's rest, then each following
// record of the chunk that is an Exec record whose line is the most
// recently used of its L1I set. Step fetches such a record ⌊instructions
// before it / FCIssue⌋ cycles on with HitFetch, which moves nothing, so
// drain fetches it ahead (see fetchAhead). In those cycles there is no
// finished thread to remove or quantum to expire, no structural limit
// reached, no mispredict charged and no other record met. Misses that
// complete meanwhile only loosen the limits, so judging them by the queue
// as it stands errs on the short side, and the retire step skips is made
// up by the next one.
func (c *fcCore) drain(now, end uint64) uint64 {
	ctx := c.ctx
	if ctx.reap || now < ctx.blockedUntil {
		return 0
	}
	cycles := end - now
	if len(ctx.threads) >= 2 {
		if ctx.nextSwitch <= now {
			return 0
		}
		cycles = min(cycles, ctx.nextSwitch-now)
	}
	t := ctx.threads[ctx.cur]
	if t.execLeft <= 0 || t.untilBranch <= 0 {
		return 0
	}
	// Each limit is a count of instructions, and the cycles they allow
	// are that count over the issue rate: ⌊min/w⌋ is the least of the
	// per-limit quotients, so one division serves them all. The last
	// FCIssue instructions before a mispredict is due are left to step,
	// which charges it.
	w := uint64(c.issue)
	limit := min(uint64(t.untilBranch-1), maxDrain)
	if cycles < limit {
		limit = min(limit, cycles*w)
	}
	// The miss queue is not full: step checked before it fetched the
	// current record, and no load has issued since. The reorder window
	// can fill; step checks it at the start of every cycle and before
	// every fetch.
	span, windowed := uint64(0), len(c.outstanding) > 0
	if windowed {
		span = c.instrIdx - c.oldest().instrIdx
		if span >= c.window {
			return 0
		}
		// Issue stops in the cycle that starts with the window full:
		// ⌈(window−span)/w⌉ cycles.
		limit = min(limit, c.window-span+w-1)
	}
	// avail counts the instructions up to the end of cur[pos-1]: the next
	// record would start avail instructions on.
	avail, pos := uint64(t.execLeft), t.pos
	// No record is pushed back: step pushes back only a load, and only
	// when no Exec record is left.
	for avail < limit && pos < len(t.cur) {
		r := t.cur[pos]
		if r.Kind() != trace.Exec || windowed && span+avail >= c.window || !c.hier.FetchIsMRU(c.id, r.Addr()) {
			break
		}
		avail += uint64(r.Count())
		pos++
	}
	n := c.perIssue.of(min(avail, limit))
	if n == 0 {
		return 0
	}
	issued := n * w
	// A record that starts at or after the last drained instruction is
	// fetched in the cycle the drain stops short of: step's.
	for pos > t.pos && avail-uint64(t.cur[pos-1].Count()) >= issued {
		pos--
		avail -= uint64(t.cur[pos].Count())
	}
	if fetched := uint64(pos - t.pos); fetched > 0 {
		c.ahead = fetchAhead{from: now, until: now + n, pos: t.pos, first: uint64(t.execLeft)}
		c.hier.Stats.L1IHits += fetched
		t.consumed += fetched
		t.pos = pos
	}
	t.execLeft = int(avail - issued)
	t.untilBranch -= int(issued)
	c.instrIdx += issued
	return n
}

// fetchAhead is what the last drain fetched ahead of time: the running
// thread's records cur[pos:] up to its current pos, the first of them
// starting first instructions after cycle from's first, each fetched in
// cycle from + ⌊instructions before it / FCIssue⌋. until is where the
// drain ends. A fetch before until may yet be falsified (see unfetch).
type fetchAhead struct {
	from, until uint64
	pos         int
	first       uint64
}

// unfetch hears that an L2 eviction made by core by in cycle now took line
// out of the core's L1I. Step would fetch a record of that line the last
// drain fetched ahead, if its cycle comes later — or is now itself, with
// by stepped first — and miss. unfetch then cuts the drain back to that
// cycle, undoing what the cycles after it had moved, and returns it.
func (c *fcCore) unfetch(line mem.Addr, now uint64, by int) (uint64, bool) {
	a := &c.ahead
	if a.until <= now {
		return 0, false
	}
	t := c.ctx.threads[c.ctx.cur]
	w := uint64(c.issue)
	start := a.first
	for i := a.pos; i < t.pos; i++ {
		r := t.cur[i]
		f := a.from + c.perIssue.of(start)
		if r.Addr().Line() != line || f < now || f == now && c.id <= by {
			start += uint64(r.Count())
			continue
		}
		// Back to the start of cycle f. Records fetched ahead in cycle f
		// before this one stay fetched: none is of line, so step would
		// fetch them as the drain did, and execLeft counts their
		// instructions with the rest of the record before them — fewer
		// than FCIssue, all issued in cycle f.
		issued := (f - a.from) * w
		undone, back := uint64(t.pos-i), (a.until-a.from)*w-issued
		c.hier.Stats.L1IHits -= undone
		t.consumed -= undone
		t.pos = i
		t.execLeft = int(start - issued)
		t.untilBranch += int(back)
		c.instrIdx -= back
		a.until = f
		return f, true
	}
	return 0, false
}

// retire drops completed misses. Most cycles complete none, which
// firstDone tells without walking the queue.
func (c *fcCore) retire(now uint64) {
	if now < c.firstDone {
		return
	}
	live := c.outstanding[:0]
	c.firstDone = never
	for _, m := range c.outstanding {
		if m.doneAt > now {
			live = append(live, m)
			c.firstDone = min(c.firstDone, m.doneAt)
		}
	}
	c.outstanding = live
}

// oldest returns the in-flight miss with the smallest instruction index:
// the first, since misses are appended as they issue and retire keeps
// their order.
func (c *fcCore) oldest() fcMiss { return c.outstanding[0] }

// earliest returns the in-flight miss that completes first.
func (c *fcCore) earliest() fcMiss {
	e := c.outstanding[0]
	for _, m := range c.outstanding[1:] {
		if m.doneAt < e.doneAt {
			e = m
		}
	}
	return e
}

func (c *fcCore) step(now uint64) (int, StallKind) {
	ctx := c.ctx
	ctx.removeFinished(now, c.chip)
	if ctx.maybeSwitch(now, c.cfg.Quantum, c.cfg.SwitchCost) {
		// A new thread's dependence state does not carry over.
		c.outstanding = c.outstanding[:0]
		c.firstDone = never
		c.prevLoadDone = 0
	}
	if len(ctx.threads) == 0 {
		return 0, KindIdle
	}
	if now < ctx.blockedUntil {
		return 0, ctx.blockCause
	}
	c.retire(now)

	t := ctx.runningThread()
	issued := 0
issue:
	for issued < c.issue {
		// Structural limits: a full miss queue or reorder window stalls
		// issue until the bounding miss retires.
		if len(c.outstanding) >= c.mlp {
			e := c.earliest()
			ctx.block(e.doneAt, e.cause)
			break issue
		}
		if len(c.outstanding) > 0 {
			if old := c.oldest(); c.instrIdx-old.instrIdx >= c.window {
				ctx.block(old.doneAt, old.cause)
				break issue
			}
		}
		if t.execLeft > 0 {
			k := c.issue - issued
			if t.execLeft < k {
				k = t.execLeft
			}
			t.execLeft -= k
			issued += k
			c.instrIdx += uint64(k)
			if c.chargeBranch(ctx, t, k, now) {
				break issue
			}
			continue
		}
		r, ok := t.next()
		if !ok {
			break issue
		}
		switch r.Kind() {
		case trace.Exec:
			t.execLeft = r.Count()
			if c.hier.HitFetch(c.id, r.Addr()) {
				break
			}
			if res := c.hier.Fetch(c.id, r.Addr(), now); res.Level != cache.LvlL1 {
				// Frontend starvation: OoO machinery does not hide
				// instruction misses.
				ctx.block(res.DoneAt, stallFor(res.Level, true))
				break issue
			}
		case trace.Load:
			if r.Dep() && c.prevLoadDone > now {
				// Pointer chase: the address depends on an in-flight
				// load. The load cannot even issue yet.
				t.pushback(r)
				ctx.block(c.prevLoadDone, c.prevLoadCause)
				break issue
			}
			issued++
			c.instrIdx++
			// L1 hits forward within the window: no dependence stall.
			c.prevLoadDone = 0
			if c.hier.HitRead(c.id, r.Addr()) {
				break
			}
			if res := c.hier.Read(c.id, r.Addr(), now); res.Level != cache.LvlL1 {
				cause := stallFor(res.Level, false)
				c.outstanding = append(c.outstanding, fcMiss{res.DoneAt, c.instrIdx, cause})
				c.firstDone = min(c.firstDone, res.DoneAt)
				c.prevLoadDone = res.DoneAt
				c.prevLoadCause = cause
			}
		case trace.Store:
			if !c.hier.HitWrite(c.id, r.Addr()) {
				c.hier.Write(c.id, r.Addr(), now)
			}
			issued++
			c.instrIdx++
		case trace.Mark:
			// Span markers are free: no issue slot, no instruction.
			c.chip.mark(t, r)
		case trace.Prefetch:
			// Software prefetch: starts the fill but takes no issue slot,
			// no reorder-window entry, and no miss-queue slot (prefetch
			// engines have their own request buffers); issue never stalls
			// on it.
			c.hier.Prefetch(c.id, r.Addr(), now)
		}
	}
	if issued == 0 {
		if now < ctx.blockedUntil {
			return 0, ctx.blockCause
		}
		return 0, KindIdle
	}
	return issued, KindComp
}

func (c *fcCore) chargeBranch(ctx *hwctx, t *Thread, issued int, now uint64) bool {
	t.untilBranch -= issued
	if t.untilBranch > 0 {
		return false
	}
	t.untilBranch += c.cfg.BranchEvery
	ctx.block(now+uint64(c.cfg.BranchPenalty), KindOther)
	return true
}
