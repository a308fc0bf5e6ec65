package sim

import (
	"repro/internal/cache"
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
// ⌈2³²/d⌉, and n·⌈2³²/d⌉ >> 32 = ⌊n/d⌋ whenever n·d < 2³² (the rounding
// error n·(⌈2³²/d⌉ − 2³²/d)/2³² then stays below 1/d). drainCycles divides
// at most an Exec record's instruction count, so any issue rate below 2¹⁹
// is exact.
type reciprocal uint64

func newReciprocal(d int) reciprocal { return reciprocal((1<<32 + uint64(d) - 1) / uint64(d)) }

// of returns ⌊n/d⌋ for n ≤ trace.MaxExecCount.
func (m reciprocal) of(n uint64) uint64 { return n * uint64(m) >> 32 }

func (c *fcCore) contexts() []*hwctx { return []*hwctx{c.ctx} }

func (c *fcCore) coast(now, end uint64) (uint64, StallKind, int) {
	ctx := c.ctx
	if len(ctx.threads) == 0 {
		return never, KindIdle, 0
	}
	// The common case after a step that issued loads and stores: an
	// awake context with no Exec record to drain is due now, whatever
	// quietUntil and drainCycles would go on to look at.
	if now >= ctx.blockedUntil && ctx.threads[ctx.cur].execLeft <= 0 {
		return now, KindComp, 0
	}
	// A blocked context skips retire and issue, so until it wakes the
	// in-flight misses and the dependence state are not looked at.
	if q := ctx.quietUntil(now); q > now {
		return q, ctx.blockCause, 0
	}
	if n := c.drainCycles(now, end); n > 0 {
		t := ctx.threads[ctx.cur]
		k := int(n) * c.issue
		t.execLeft -= k
		t.untilBranch -= k
		c.instrIdx += uint64(k)
		return now + n, KindComp, c.issue
	}
	return now, KindComp, 0
}

// drainCycles counts the cycles from now, short of end, in which step
// would do nothing but issue FCIssue more instructions of the running
// thread's current Exec record: no finished thread to remove or quantum
// to expire, no structural limit reached, no mispredict charged, and the
// record not exhausted. Misses that complete meanwhile only loosen the
// limits, so judging them by the queue as it stands errs on the short
// side, and the retire step skips is made up by the next one.
func (c *fcCore) drainCycles(now, end uint64) uint64 {
	ctx := c.ctx
	if ctx.reap || now < ctx.blockedUntil {
		return 0
	}
	n := end - now
	if len(ctx.threads) >= 2 {
		if ctx.nextSwitch <= now {
			return 0
		}
		n = min(n, ctx.nextSwitch-now)
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
	insns := min(uint64(t.execLeft), uint64(t.untilBranch-1))
	// The miss queue is not full: step checked before it fetched the
	// record, and no load has issued since. The reorder window can fill.
	if len(c.outstanding) > 0 {
		span := c.instrIdx - c.oldest().instrIdx
		if span >= c.window {
			return 0
		}
		// Issue stops in the cycle that starts with the window full:
		// ⌈(window−span)/w⌉ cycles.
		insns = min(insns, c.window-span+uint64(c.issue)-1)
	}
	return min(n, c.perIssue.of(insns))
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
			t.execLine = r.Addr()
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
