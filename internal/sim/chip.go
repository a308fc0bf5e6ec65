package sim

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// coreModel is one simulated core. The chip steps it only in cycles where
// it can do something new and accounts for the rest in bulk (see Run).
type coreModel interface {
	// step simulates one cycle, returning the number of instructions
	// issued and, when zero, the classification of the lost cycle.
	step(now uint64) (int, StallKind)
	// coast reports how long from cycle now the core need not be stepped,
	// and what every cycle in [now, until) amounts to. Either step would
	// lose each to kind and leave the core exactly as it found it (issue
	// 0: every context parked on a known wake-up, or — until never, kind
	// KindIdle — no software thread bound at all); or step would do
	// nothing but issue the next issue instructions of the records
	// being drained (kind KindComp). A draining core is moved past those
	// cycles on the spot, so its until never exceeds end, the last cycle
	// the caller will account for; a parked core's may. until == now
	// means the core has to be stepped at now. Only another core's access
	// can make a draining core due sooner (Chip.l1Lost).
	coast(now, end uint64) (until uint64, kind StallKind, issue int)
	// contexts exposes the core's hardware contexts for thread placement.
	contexts() []*hwctx
}

// never is the wake-up cycle of a core nothing will wake.
const never = ^uint64(0)

// coastingCore is Run's view of one core between steps: every cycle in
// [since, until) goes to kind and issues issue instructions, so Run
// neither steps the core before until nor counts those cycles one by one.
type coastingCore struct {
	core  coreModel
	until uint64
	kind  StallKind
	issue int
	since uint64 // first cycle not yet credited to the window's totals
}

// Chip is one simulated chip multiprocessor (or, with a private-L2
// hierarchy, one node-per-core SMP): cores plus memory hierarchy plus the
// software threads scheduled onto them.
type Chip struct {
	cfg     Config
	hier    *cache.Hierarchy
	cores   []coastingCore
	ctxs    []*hwctx // all hardware contexts, placement order
	ctxCore []int    // owning core of each placement slot

	threads    []*Thread
	threadCore []int    // owning core per thread, for warming
	doneAt     []uint64 // completion cycle per thread
	live       int

	// onMark, when set, receives every retired trace.Mark record with
	// the simulated cycle at which the surrounding work executed.
	onMark func(thread int, id uint64, begin bool, cycle uint64)

	now  uint64
	cuts [3]uint64 // drains cut short, by the cache.Loss that cut them (fcCore.unfetch)
}

// NewChip builds a chip from cfg; zero config fields take defaults.
func NewChip(cfg Config) *Chip {
	return NewChipOn(cfg, cache.NewHierarchy(cfg.withDefaults().Hier))
}

// NewChipOn is NewChip on a memory hierarchy the caller supplies: one in
// the state cache.NewHierarchy leaves it (new, or Reset after an earlier
// chip was done with it) and of the geometry cfg describes. The chip owns
// it until the caller stops using the chip.
func NewChipOn(cfg Config, hier *cache.Hierarchy) *Chip {
	cfg = cfg.withDefaults()
	if want := cfg.Hier.WithDefaults(); hier.Config() != want {
		panic(fmt.Sprintf("sim: hierarchy built for %+v on a chip configured %+v", hier.Config(), want))
	}
	ch := &Chip{cfg: cfg, hier: hier}
	hier.OnL1Loss(ch.l1Lost)
	for i := 0; i < cfg.Cores; i++ {
		switch cfg.Camp {
		case FatCamp:
			ch.cores = append(ch.cores, coastingCore{core: newFCCore(i, ch)})
		case LeanCamp:
			c := &lcCore{id: i, cfg: &ch.cfg, chip: ch}
			for k := 0; k < cfg.CtxPerCore; k++ {
				c.ctxs = append(c.ctxs, &hwctx{})
			}
			ch.cores = append(ch.cores, coastingCore{core: c})
		default:
			panic(fmt.Sprintf("sim: unknown camp %d", cfg.Camp))
		}
	}
	// Placement order interleaves contexts across cores so the first N
	// threads land on N distinct cores.
	for k := 0; ; k++ {
		added := false
		for coreID, c := range ch.cores {
			if ctxs := c.core.contexts(); k < len(ctxs) {
				ch.ctxs = append(ch.ctxs, ctxs[k])
				ch.ctxCore = append(ch.ctxCore, coreID)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return ch
}

// Config returns the chip's (defaulted) configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// Hierarchy exposes the memory hierarchy (for stats inspection).
func (ch *Chip) Hierarchy() *cache.Hierarchy { return ch.hier }

// AddThread binds a software thread reading from s to the chip, placing it
// on hardware contexts round-robin. It returns the thread id.
func (ch *Chip) AddThread(s *trace.Stream) int {
	return ch.AddThreadAt(s, len(ch.threads)%len(ch.ctxs))
}

// AddThreadAt binds a software thread to a specific hardware context
// (placement order interleaves contexts across cores: context i lives on
// core i%Cores). Scheduling experiments use it to co-locate producer and
// consumer threads on one core.
func (ch *Chip) AddThreadAt(s *trace.Stream, ctxIdx int) int {
	id := len(ch.threads)
	t := newThread(id, s, ch, ch.cfg.BranchEvery)
	ctxIdx %= len(ch.ctxs)
	t.ctx = ch.ctxs[ctxIdx]
	t.ctx.threads = append(t.ctx.threads, t)
	ch.threads = append(ch.threads, t)
	ch.threadCore = append(ch.threadCore, ch.ctxCore[ctxIdx])
	ch.doneAt = append(ch.doneAt, 0)
	ch.live++
	return id
}

// pump obtains at least one more chunk for t, returning false when t's
// trace has ended. While t's producer has nothing ready the pump drains
// whatever other producers have queued (into their threads' local chunk
// buffers) so that a producer blocked on a full channel always makes
// progress — without this, engine lock coupling between client threads
// could deadlock the single-threaded simulator — and when nobody has
// anything it parks briefly on t's stream, which leaves the processor to
// the producers. Draining lets the other producers run ahead of simulated
// time; a producer whose decisions must not depend on that takes them
// through trace.Recorder.AtPace.
func (ch *Chip) pump(t *Thread) bool {
	var wait time.Duration
	for {
		c, ok, ended := t.stream.RecvChunk(wait)
		if ok {
			t.chunks = append(t.chunks, c)
			return true
		}
		if ended {
			return false
		}
		wait = 200 * time.Microsecond
		for _, o := range ch.threads {
			if o == t || o.done {
				continue
			}
			if oc, okc, _ := o.stream.RecvChunk(0); okc {
				o.chunks = append(o.chunks, oc)
				wait = 0 // progress elsewhere: look again before parking
			}
		}
	}
}

// l1Lost is the hierarchy's report that core by's access, in the current
// cycle, took line out of core's L1 or its L1D copy out of Modified. A
// fat-camp core may have taken a hit on the line ahead in a drain that has
// not reached the hit's cycle yet: then the drain ends at that cycle. The
// cut comes while core by steps, so Run looks at every core again in the
// next cycle.
func (ch *Chip) l1Lost(core int, line mem.Addr, loss cache.Loss, by int) {
	p := &ch.cores[core]
	if c, ok := p.core.(*fcCore); ok {
		if until, cut := c.unfetch(line, loss, ch.now, by); cut {
			p.until = until
			ch.cuts[loss]++
		}
	}
}

// SetMarkHandler installs the span-marker callback (obs.Tracer.OnMark).
// Marks cost zero simulated cycles, so installing a handler never
// changes timing; a chip without one discards markers.
func (ch *Chip) SetMarkHandler(f func(thread int, id uint64, begin bool, cycle uint64)) {
	ch.onMark = f
}

// mark delivers one retired span marker at the current cycle.
func (ch *Chip) mark(t *Thread, r trace.Ref) {
	if ch.onMark != nil {
		ch.onMark(t.ID, r.MarkID(), r.MarkBegin(), ch.now)
	}
}

// threadFinished records a thread's completion.
func (ch *Chip) threadFinished(t *Thread, now uint64) {
	if ch.doneAt[t.ID] == 0 {
		ch.doneAt[t.ID] = now
		ch.live--
	}
}

// Warm consumes up to refs trace records from every thread, updating cache
// contents without timing — SimFlex-style functional warming before a
// measured window. It takes the threads one after another, each thread's
// whole prefix before the next thread's first record, and that order is
// part of every pinned measurement: it decides which thread's lines a
// shared cache holds when the window opens, and the paced requests
// (trace.Recorder.AtPace) inside the prefixes are granted in it — thread
// 0's all before thread 1's first, whatever cycle they would have fallen in.
func (ch *Chip) Warm(refs int) {
	for i, t := range ch.threads {
		core := ch.threadCore[i]
		for n := 0; n < refs; n++ {
			r, ok := t.next()
			if !ok {
				break
			}
			switch r.Kind() {
			case trace.Exec:
				ch.hier.WarmFetch(core, r.Addr())
			case trace.Load:
				ch.hier.WarmRead(core, r.Addr())
			case trace.Store:
				ch.hier.WarmWrite(core, r.Addr())
			case trace.Prefetch:
				// Warming has no clock, so a prefetch degenerates to a read.
				ch.hier.WarmRead(core, r.Addr())
			case trace.Mark:
				// Free: stamp it (warming does not advance the clock)
				// without consuming warm budget, so traced and untraced
				// runs warm the identical reference prefix.
				ch.mark(t, r)
				n--
			}
		}
	}
}

// Run simulates up to maxCycles cycles (beyond those already elapsed) and
// returns the measured result. It stops early when every thread's trace
// has been fully executed. Statistics cover only this measurement window,
// so Warm → Run yields a warmed measurement.
//
// Run advances by events, not by cycles. A core that reports it can coast
// — its contexts all parked on known wake-ups, or its thread draining
// records that hit in its L1s at the full issue rate — is not stepped
// until that ends, and when no core has anything new to do the clock
// jumps to the earliest such moment, clamped to the window end. The cycles passed over are
// credited in bulk to the kind the core was spending them on (which
// context wakes first, and hence the kind, cannot change while nothing is
// stepped), so the Result is bit-for-bit what stepping every core every
// cycle produces.
func (ch *Chip) Run(maxCycles uint64) Result {
	start := ch.now
	end := start + maxCycles
	if end < start {
		end = never
	}
	statsStart := ch.hier.Stats
	var bd Breakdown
	var instructions uint64
	credit := func(p *coastingCore, upTo uint64) {
		n := upTo - p.since
		bd.Cycles[p.kind] += n
		instructions += n * uint64(p.issue)
	}

	// Threads were added, warmed or left mid-stall since the last window:
	// ask every core afresh. Cores without threads stay idle for the whole
	// window (threads are only added between windows) and are left out of
	// the loop altogether.
	active := make([]*coastingCore, 0, len(ch.cores))
	for i := range ch.cores {
		p := &ch.cores[i]
		p.until, p.kind, p.issue = p.core.coast(start, end)
		p.since = start
		if p.until != never {
			active = append(active, p)
		}
	}

	for ch.now < end && ch.live > 0 {
		now := ch.now
		next := end
		stepped := false
		for _, p := range active {
			if now < p.until {
				next = min(next, p.until)
				continue
			}
			credit(p, now)
			// A fat-camp core is called directly, not through coreModel.
			var issued int
			var kind StallKind
			fc, isFC := p.core.(*fcCore)
			if isFC {
				issued, kind = fc.step(now)
			} else {
				issued, kind = p.core.step(now)
			}
			if issued > 0 {
				instructions += uint64(issued)
				kind = KindComp
			}
			bd.Add(kind)
			if isFC {
				p.until, p.kind, p.issue = fc.coast(now+1, end)
			} else {
				p.until, p.kind, p.issue = p.core.coast(now+1, end)
			}
			p.since = now + 1
			stepped = true
		}
		if stepped {
			ch.now = now + 1
		} else {
			ch.now = next
		}
	}
	for i := range ch.cores {
		credit(&ch.cores[i], ch.now)
	}

	return ch.result(start, statsStart, bd, instructions)
}

// result assembles the measurement of the window that began at cycle start
// with hierarchy counters before.
func (ch *Chip) result(start uint64, before cache.Stats, bd Breakdown, instructions uint64) Result {
	stats := ch.hier.Stats
	stats.L1DHits -= before.L1DHits
	stats.L1DMisses -= before.L1DMisses
	stats.L1IHits -= before.L1IHits
	stats.L1IMisses -= before.L1IMisses
	stats.StreamBufHits -= before.StreamBufHits
	stats.L2Hits -= before.L2Hits
	stats.L2Misses -= before.L2Misses
	stats.L1Transfers -= before.L1Transfers
	stats.CohTransfers -= before.CohTransfers
	stats.MemAccesses -= before.MemAccesses
	stats.Upgrades -= before.Upgrades
	stats.PortQueueCycles -= before.PortQueueCycles
	stats.BackInvalidations -= before.BackInvalidations
	stats.Prefetches -= before.Prefetches
	stats.PrefetchHits -= before.PrefetchHits
	stats.PrefetchLate -= before.PrefetchLate

	done := make([]uint64, len(ch.doneAt))
	copy(done, ch.doneAt)
	return Result{
		Cycles:       ch.now - start,
		Instructions: instructions,
		Breakdown:    bd,
		Cache:        stats,
		ThreadDone:   done,
	}
}

// Now returns the current simulated cycle.
func (ch *Chip) Now() uint64 { return ch.now }

// ThreadProgress returns how many trace records thread id has executed
// (or warmed) so far.
func (ch *Chip) ThreadProgress(id int) uint64 { return ch.threads[id].consumed }
