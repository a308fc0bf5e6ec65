package sim

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// lcCore models one lean-camp core: narrow in-order issue, several
// hardware contexts interleaved round-robin. Any L1 miss (instruction or
// data) parks the issuing context until the fill completes; the core then
// issues from the remaining runnable contexts, which is how the lean camp
// hides stalls under saturated workloads.
type lcCore struct {
	id   int
	cfg  *Config
	chip *Chip
	ctxs []*hwctx
	rr   int // round-robin pointer over contexts
}

func (c *lcCore) contexts() []*hwctx { return c.ctxs }

// coast never drains: an LC core interleaves its contexts cycle by cycle,
// so only the all-parked case is known ahead. That lasts until the
// earliest wake-up over the contexts that have threads; until then step
// keeps charging the context that wakes first — the first in context order
// on a tie, as step itself breaks it — and the round-robin pointer does
// not move.
func (c *lcCore) coast(now, end uint64) (uint64, StallKind, int) {
	until, first, kind := never, never, KindIdle
	for _, ctx := range c.ctxs {
		if len(ctx.threads) == 0 {
			continue
		}
		q := ctx.quietUntil(now)
		if q <= now {
			return now, KindComp, 0
		}
		until = min(until, q)
		if ctx.blockedUntil < first {
			first, kind = ctx.blockedUntil, ctx.blockCause
		}
	}
	return until, kind, 0
}

// step simulates one cycle and returns issued instruction count and, when
// nothing issued, the classification of the lost cycle.
func (c *lcCore) step(now uint64) (int, StallKind) {
	for _, ctx := range c.ctxs {
		ctx.removeFinished(now, c.chip)
		ctx.maybeSwitch(now, c.cfg.Quantum, c.cfg.SwitchCost)
	}
	// Pick the next runnable context in round-robin order.
	var ctx *hwctx
	n := len(c.ctxs)
	for i := 0; i < n; i++ {
		cand := c.ctxs[(c.rr+i)%n]
		if cand.runnable(now) {
			ctx = cand
			c.rr = (c.rr + i + 1) % n
			break
		}
	}
	if ctx == nil {
		// Every context is blocked or empty: the cycle is lost. Attribute
		// it to the blocked context that will wake first; with no threads
		// at all the core is idle.
		cause := KindIdle
		best := ^uint64(0)
		for _, cand := range c.ctxs {
			if len(cand.threads) > 0 && cand.blockedUntil > now && cand.blockedUntil < best {
				best = cand.blockedUntil
				cause = cand.blockCause
			}
		}
		return 0, cause
	}

	t := ctx.runningThread()
	issued := 0
issue:
	for issued < c.cfg.LCIssue {
		if t.execLeft > 0 {
			k := c.cfg.LCIssue - issued
			if t.execLeft < k {
				k = t.execLeft
			}
			t.execLeft -= k
			issued += k
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
			if c.chip.hier.HitFetch(c.id, r.Addr()) {
				break
			}
			if res := c.chip.hier.Fetch(c.id, r.Addr(), now); res.Level != cache.LvlL1 {
				ctx.block(res.DoneAt, stallFor(res.Level, true))
				break issue
			}
		case trace.Load:
			issued++
			if c.chip.hier.HitRead(c.id, r.Addr()) {
				break
			}
			if res := c.chip.hier.Read(c.id, r.Addr(), now); res.Level != cache.LvlL1 {
				// In-order blocking miss: the context becomes
				// non-runnable until the fill, per the paper's LC model.
				ctx.block(res.DoneAt, stallFor(res.Level, false))
				break issue
			}
		case trace.Store:
			// Stores retire through the write buffer without blocking.
			if !c.chip.hier.HitWrite(c.id, r.Addr()) {
				c.chip.hier.Write(c.id, r.Addr(), now)
			}
			issued++
		case trace.Mark:
			// Span markers are free: no issue slot, no instruction.
			c.chip.mark(t, r)
		case trace.Prefetch:
			// Software prefetch: never blocks, even on an in-order core —
			// the fill proceeds while the context keeps issuing.
			c.chip.hier.Prefetch(c.id, r.Addr(), now)
		}
	}
	if issued == 0 {
		if now < ctx.blockedUntil {
			return 0, ctx.blockCause
		}
		return 0, KindIdle // thread ended this cycle
	}
	return issued, KindComp
}

// chargeBranch debits issued instructions against the branch-mispredict
// interval and blocks the context for the penalty when one is due. It
// reports whether a penalty was charged.
func (c *lcCore) chargeBranch(ctx *hwctx, t *Thread, issued int, now uint64) bool {
	t.untilBranch -= issued
	if t.untilBranch > 0 {
		return false
	}
	t.untilBranch += c.cfg.BranchEvery
	ctx.block(now+uint64(c.cfg.BranchPenalty), KindOther)
	return true
}
