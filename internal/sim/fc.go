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
	// A blocked context skips retire and issue, so until it wakes the
	// in-flight misses and the dependence state are not looked at.
	if now < ctx.blockedUntil {
		if q := ctx.quietUntil(now); q > now {
			return q, ctx.blockCause, 0
		}
		return now, KindComp, 0
	}
	// The common case after a step that ended on a record boundary: the
	// next record would not hit (drain's check of each record, inlined),
	// so there is nothing to drain.
	if t := ctx.threads[ctx.cur]; t.execLeft <= 0 {
		if t.hasPending || t.pos == len(t.cur) {
			return now, KindComp, 0
		}
		hit := false
		switch r := t.cur[t.pos]; r.Kind() {
		case trace.Exec:
			hit = c.hier.FetchIsMRU(c.id, r.Addr())
		case trace.Load:
			hit = c.hier.ReadIsMRU(c.id, r.Addr())
		case trace.Store:
			hit = c.hier.WriteIsMRU(c.id, r.Addr())
		}
		if !hit {
			return now, KindComp, 0
		}
	}
	if n := c.drain(now, end); n > 0 {
		return now + n, KindComp, c.issue
	}
	return now, KindComp, 0
}

// drain counts the cycles from now, short of end, in which step would do
// nothing but issue FCIssue more instructions of the running thread's
// records that hit in its L1s, and moves the thread and the core past
// them. The records are one instruction stream: the current Exec record's
// rest, then each following record of the chunk that is an Exec record
// whose line is the most recently used of its L1I set, a load whose line
// is the most recently used of its L1D set while no software prefetch is
// in flight, or a store whose line is that and Modified — each one
// instruction for a load or a store. Step takes such a record
// ⌊instructions before it / FCIssue⌋ cycles on with HitFetch, HitRead or
// HitWrite, none of which moves anything, so drain takes it ahead (see
// fetchAhead). In those cycles there is no finished thread to remove or
// quantum to expire, no structural limit reached, no mispredict charged,
// no dependent load waiting and no other record met. Misses that complete
// meanwhile only loosen the limits, so judging them by the queue as it
// stands errs on the short side, and the retire step skips is made up by
// the next one.
func (c *fcCore) drain(now, end uint64) uint64 {
	ctx := c.ctx
	// coast calls it for an awake context only.
	if ctx.reap {
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
	// A pushed-back record is a dependent load step could not issue; a
	// full miss queue blocks issue.
	if t.hasPending || t.untilBranch <= 0 || len(c.outstanding) >= c.mlp {
		return 0
	}
	// Each limit is a count of instructions, and the cycles they allow
	// are that count over the issue rate: ⌊min/w⌋ is the least of the
	// per-limit quotients, so one division serves them all.
	w := uint64(c.issue)
	limit := uint64(maxDrain)
	if cycles < limit {
		limit = min(limit, cycles*w)
	}
	// The reorder window can fill; step checks it at the start of every
	// cycle and before every record: no record starts room instructions
	// on or later.
	room := uint64(maxDrain)
	if len(c.outstanding) > 0 {
		span := c.instrIdx - c.oldest().instrIdx
		if span >= c.window {
			return 0
		}
		room = c.window - span
		// Issue stops in the cycle that starts with the window full:
		// ⌈(window−span)/w⌉ cycles.
		limit = min(limit, room+w-1)
	}
	// Only Exec instructions count towards a mispredict: the one that
	// brings the count to it, left to step, which charges it, starts
	// budget instructions on plus one for each load and store before it.
	budget := uint64(t.untilBranch - 1)
	// avail counts the instructions up to the end of cur[pos-1]: the next
	// record would start avail instructions on; data of them are loads
	// and stores.
	avail, data := uint64(max(t.execLeft, 0)), 0
	pos, loaded := t.pos, -1
	prevLoadDone := c.prevLoadDone
walk:
	for avail < limit && avail < room && avail < budget+uint64(data) && pos < len(t.cur) {
		r := t.cur[pos]
		switch r.Kind() {
		case trace.Exec:
			if !c.hier.FetchIsMRU(c.id, r.Addr()) {
				break walk
			}
			avail += uint64(r.Count())
		case trace.Load:
			// A dependent load waits for the latest missing load, unless
			// a load taken before it has hit.
			if !c.hier.ReadIsMRU(c.id, r.Addr()) || r.Dep() && prevLoadDone > now+c.perIssue.of(avail) {
				break walk
			}
			if loaded < 0 {
				loaded = pos
			}
			prevLoadDone = 0
			avail++
			data++
		case trace.Store:
			if !c.hier.WriteIsMRU(c.id, r.Addr()) {
				break walk
			}
			avail++
			data++
		default:
			break walk
		}
		pos++
	}
	n := c.perIssue.of(min(avail, limit, budget+uint64(data)))
	if n == 0 {
		return 0
	}
	issued := n * w
	// A record that starts at or after the last drained instruction is
	// taken in the cycle the drain stops short of: step's.
	for pos > t.pos {
		k := instrs(t.cur[pos-1])
		if avail-k < issued {
			break
		}
		pos--
		avail -= k
		if t.cur[pos].Kind() != trace.Exec {
			data--
		}
	}
	if taken := pos - t.pos; taken > 0 {
		// Field by field: a composite literal is built on the stack and
		// copied, and the copy stalls on the stores just made.
		a := &c.ahead
		a.from, a.until, a.pos, a.first, a.prevLoadDone = now, now+n, t.pos, uint64(max(t.execLeft, 0)), c.prevLoadDone
		c.hier.Stats.L1IHits += uint64(taken - data)
		c.hier.Stats.L1DHits += uint64(data)
		t.consumed += uint64(taken)
		t.pos = pos
		if loaded >= 0 && loaded < pos {
			c.prevLoadDone = 0
		}
	}
	// Every load and store taken lies wholly inside the issued
	// instructions; the rest of them are Exec instructions.
	t.execLeft = int(avail - issued)
	t.untilBranch -= int(issued) - data
	c.instrIdx += issued
	return n
}

// instrs is how many instructions record r issues: an Exec record its
// count, a load or a store one.
func instrs(r trace.Ref) uint64 {
	if r.Kind() == trace.Exec {
		return uint64(r.Count())
	}
	return 1
}

// fetchAhead is what the last drain took ahead of time: the running
// thread's records cur[pos:] up to its current pos, the first of them
// starting first instructions after cycle from's first, each taken in
// cycle from + ⌊instructions before it / FCIssue⌋. until is where the
// drain ends, prevLoadDone the core's before it. A record taken for a
// cycle before until may yet be falsified (see unfetch).
type fetchAhead struct {
	from, until  uint64
	pos          int
	first        uint64
	prevLoadDone uint64
}

// unfetch hears that core by's access in cycle now took line out of the
// core's L1I or L1D, or its L1D copy out of Modified (loss). Step would
// take a record of that line the last drain took ahead — an Exec record
// for an L1I loss, a load or a store for an L1D loss, a store for a
// downgrade — if its cycle comes later, or is now itself with by stepped
// first, and would not hit. unfetch then cuts the drain back to the start
// of that cycle, undoing what the drain had moved from there on, and
// returns the cycle.
func (c *fcCore) unfetch(line mem.Addr, loss cache.Loss, now uint64, by int) (uint64, bool) {
	a := &c.ahead
	if a.until <= now {
		return 0, false
	}
	t := c.ctx.threads[c.ctx.cur]
	start, f := a.first, uint64(0)
	for i := a.pos; ; i++ {
		if i == t.pos {
			return 0, false
		}
		r := t.cur[i]
		if r.Addr().Line() == line && falsifies(loss, r.Kind()) {
			if f = a.from + c.perIssue.of(start); f > now || f == now && c.id > by {
				break
			}
		}
		start += instrs(r)
	}
	// Back to the start of cycle f: the records that start before its
	// first instruction stay taken, as step would have taken them by then;
	// the rest are undone, and step takes them again.
	w := uint64(c.issue)
	issued, drained := (f-a.from)*w, (a.until-a.from)*w
	start, j, loaded := a.first, a.pos, false
	for ; j < t.pos && start < issued; j++ {
		r := t.cur[j]
		loaded = loaded || r.Kind() == trace.Load
		start += instrs(r)
	}
	var fetches, data uint64
	for _, r := range t.cur[j:t.pos] {
		if r.Kind() == trace.Exec {
			fetches++
		} else {
			data++
		}
	}
	c.hier.Stats.L1IHits -= fetches
	c.hier.Stats.L1DHits -= data
	t.consumed -= fetches + data
	t.pos = j
	t.execLeft = int(max(start, issued) - issued)
	t.untilBranch += int(drained - issued - data)
	c.instrIdx -= drained - issued
	if !loaded {
		c.prevLoadDone = a.prevLoadDone
	}
	a.until = f
	return f, true
}

// falsifies reports whether loss turns a hit of a record of kind k on the
// line into something else: an L1I loss a fetch, an L1D loss a load or a
// store, a downgrade from Modified a store.
func falsifies(loss cache.Loss, k trace.Kind) bool {
	switch loss {
	case cache.LostL1I:
		return k == trace.Exec
	case cache.LostL1D:
		return k == trace.Load || k == trace.Store
	}
	return k == trace.Store
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
