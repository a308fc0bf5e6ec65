package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// runByCycle is the driver Chip.Run replaced: every core that has threads
// is stepped in every cycle, and every cycle is counted one at a time. It
// drives the same coreModel.step, so it is the oracle for what event
// skipping may not change.
func runByCycle(ch *Chip, maxCycles uint64) Result {
	start := ch.now
	before := ch.hier.Stats
	var bd Breakdown
	var instructions uint64
	for ch.now-start < maxCycles && ch.live > 0 {
		for i := range ch.cores {
			c := ch.cores[i].core
			if !hasThreads(c) {
				bd.Add(KindIdle)
				continue
			}
			issued, kind := c.step(ch.now)
			if issued > 0 {
				instructions += uint64(issued)
				bd.Add(KindComp)
			} else {
				bd.Add(kind)
			}
		}
		ch.now++
	}
	return ch.result(start, before, bd, instructions)
}

func hasThreads(c coreModel) bool {
	for _, ctx := range c.contexts() {
		if len(ctx.threads) > 0 {
			return true
		}
	}
	return false
}

// traceOp is one Recorder call, kept so the same trace can be replayed
// into the reference chip and the chip under test.
type traceOp struct {
	kind  trace.Kind
	addr  mem.Addr // data address, or code-segment base for Exec
	n     int      // Exec: instructions
	size  int      // Exec: bytes of the code segment walked
	dep   bool     // Load: depends on the previous load
	id    uint64   // Mark
	begin bool
}

func (o traceOp) play(r *trace.Recorder) {
	switch o.kind {
	case trace.Exec:
		r.Exec(mem.CodeSeg{Base: o.addr, Size: o.size}, o.n)
	case trace.Load:
		r.Load(o.addr, o.dep)
	case trace.Store:
		r.Store(o.addr)
	case trace.Prefetch:
		r.Prefetch(o.addr)
	case trace.Mark:
		r.Mark(o.id, o.begin)
	}
}

// traceMix weights the record kinds of a synthetic trace.
type traceMix struct {
	name                                     string
	exec, depLoad, load, store, prefetch, mk int
	maxExec                                  int // longest Exec run, instructions
}

var traceMixes = []traceMix{
	{name: "compute", exec: 12, depLoad: 1, load: 1, store: 1, prefetch: 0, mk: 1, maxExec: 400},
	{name: "chase", exec: 4, depLoad: 10, load: 1, store: 1, prefetch: 0, mk: 1, maxExec: 12},
	{name: "stream", exec: 4, depLoad: 0, load: 10, store: 3, prefetch: 4, mk: 1, maxExec: 16},
	{name: "mixed", exec: 5, depLoad: 4, load: 4, store: 3, prefetch: 2, mk: 2, maxExec: 90},
}

// synthTrace draws n records from mix. Data addresses fall in a hot 8 KB
// region (L1 hits), a 256 KB region (L2 hits) or a 16 MB region (memory),
// all shared by every thread so stores force upgrades and transfers; code
// segments range from one line to four times the L1I.
func synthTrace(rng *rand.Rand, mix traceMix, n int) []traceOp {
	total := mix.exec + mix.depLoad + mix.load + mix.store + mix.prefetch + mix.mk
	dataAddr := func() mem.Addr {
		var span int
		switch rng.Intn(3) {
		case 0:
			span = 8 << 10
		case 1:
			span = 256 << 10
		default:
			span = 16 << 20
		}
		return mem.HeapBase + mem.Addr(rng.Intn(span))
	}
	segs := []mem.CodeSeg{
		{Base: mem.CodeBase, Size: 64},
		{Base: mem.CodeBase + 1<<12, Size: 2 << 10},
		{Base: mem.CodeBase + 1<<16, Size: 256 << 10},
	}
	ops := make([]traceOp, 0, n)
	var open []uint64
	var nextID uint64
	stream := mem.HeapBase + mem.Addr(rng.Intn(1<<20))&^63
	for len(ops) < n {
		k := rng.Intn(total)
		switch {
		case k < mix.exec:
			seg := segs[rng.Intn(len(segs))]
			ops = append(ops, traceOp{kind: trace.Exec, addr: seg.Base, size: seg.Size, n: 1 + rng.Intn(mix.maxExec)})
		case k < mix.exec+mix.depLoad:
			ops = append(ops, traceOp{kind: trace.Load, addr: dataAddr(), dep: true})
		case k < mix.exec+mix.depLoad+mix.load:
			// Half the independent loads walk a sequential stream.
			a := dataAddr()
			if rng.Intn(2) == 0 {
				a, stream = stream, stream+mem.LineSize
			}
			ops = append(ops, traceOp{kind: trace.Load, addr: a})
		case k < mix.exec+mix.depLoad+mix.load+mix.store:
			ops = append(ops, traceOp{kind: trace.Store, addr: dataAddr()})
		case k < mix.exec+mix.depLoad+mix.load+mix.store+mix.prefetch:
			ops = append(ops, traceOp{kind: trace.Prefetch, addr: stream + mem.Addr(rng.Intn(8))*mem.LineSize})
		default:
			if len(open) > 0 && rng.Intn(2) == 0 {
				ops = append(ops, traceOp{kind: trace.Mark, id: open[len(open)-1]})
				open = open[:len(open)-1]
			} else {
				nextID++
				open = append(open, nextID)
				ops = append(ops, traceOp{kind: trace.Mark, id: nextID, begin: true})
			}
		}
	}
	return ops
}

// pureCompute is n full-line Exec records on one code line: after the
// first fetch the thread only drains.
func pureCompute(n int) []traceOp {
	ops := make([]traceOp, n)
	for i := range ops {
		ops[i] = traceOp{kind: trace.Exec, addr: mem.CodeBase, size: mem.LineSize, n: 16}
	}
	return ops
}

// markEvent is one mark-handler delivery.
type markEvent struct {
	thread int
	id     uint64
	begin  bool
	cycle  uint64
}

// skipCase is one chip, its threads' traces, and the sequence of windows
// measured on it.
type skipCase struct {
	cfg     Config
	traces  [][]traceOp
	warm    int
	windows []uint64
	// rewarm, when set, warms again by that many records after every
	// window but the last.
	rewarm int
	// bigChunks feeds the threads through trace.Pipe's default chunks
	// instead of 64-record ones, which cap what a drain fetches ahead at
	// 63 records.
	bigChunks bool
}

func (c skipCase) String() string {
	return fmt.Sprintf("%v cores=%d threads=%d warm=%d rewarm=%d windows=%v quantum=%d sharedL2=%v",
		c.cfg.Camp, c.cfg.Cores, len(c.traces), c.warm, c.rewarm, c.windows, c.cfg.Quantum, c.cfg.Hier.SharedL2)
}

// measure plays the case on a fresh chip through run and returns every
// window's Result, the mark stamps in delivery order and how many drains
// a back-invalidation cut. Small chunks keep the pump busy; the last
// window must run the traces to completion so the feeding goroutines exit.
func (c skipCase) measure(t *testing.T, run func(*Chip, uint64) Result) ([]Result, []markEvent, uint64) {
	t.Helper()
	ch := NewChip(c.cfg)
	var marks []markEvent
	ch.SetMarkHandler(func(thread int, id uint64, begin bool, cycle uint64) {
		marks = append(marks, markEvent{thread, id, begin, cycle})
	})
	for _, ops := range c.traces {
		rec, s := trace.PipeSized(64, 2)
		if c.bigChunks {
			rec, s = trace.Pipe()
		}
		go func(ops []traceOp) {
			for _, o := range ops {
				o.play(rec)
			}
			rec.Close()
		}(ops)
		ch.AddThread(s)
	}
	if c.warm > 0 {
		ch.Warm(c.warm)
	}
	results := make([]Result, 0, len(c.windows))
	for i, w := range c.windows {
		results = append(results, run(ch, w))
		if c.rewarm > 0 && i < len(c.windows)-1 {
			ch.Warm(c.rewarm)
		}
	}
	if ch.live != 0 {
		t.Fatalf("%v: %d threads unfinished after the last window", c, ch.live)
	}
	return results, marks, ch.cuts
}

// check requires Chip.Run to reproduce the cycle-by-cycle loop exactly,
// and returns how many of its drains a back-invalidation cut.
func (c skipCase) check(t *testing.T) (uint64, bool) {
	t.Helper()
	want, wantMarks, _ := c.measure(t, runByCycle)
	got, gotMarks, cuts := c.measure(t, (*Chip).Run)
	ok := true
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%v: window %d (%d cycles) differs\n event-skipping: %+v\n cycle-by-cycle: %+v", c, i, c.windows[i], got[i], want[i])
			ok = false
		}
	}
	if !reflect.DeepEqual(gotMarks, wantMarks) {
		t.Errorf("%v: mark stamps differ (%d vs %d deliveries)", c, len(gotMarks), len(wantMarks))
		ok = false
	}
	return cuts, ok
}

func skipConfig(camp Camp, cores int, shared bool) Config {
	return Config{
		Camp:  camp,
		Cores: cores,
		Hier:  cache.Config{L2Size: 1 << 20, L2Lat: 10, SharedL2: shared, StreamBuf: true},
	}
}

// toCompletion is a window no synthetic trace outlasts, yet short enough
// that a thread the simulator fails to retire fails the test instead of
// spinning the cycle-by-cycle reference for hours.
const toCompletion = 1 << 26

// TestEventSkipMatchesCycleLoop is the differential matrix: both camps,
// one and four cores, thread counts below, at and above the context count
// (the last forces quantum switches), four trace mixes, single and
// bounded windows that cut stalls in half, with and without warming.
func TestEventSkipMatchesCycleLoop(t *testing.T) {
	windowSets := [][]uint64{
		{toCompletion},
		// Memory latency is 400 cycles: windows this short end inside
		// stalls, and the one-cycle window lands wherever the last left off.
		{137, 1, 2500, 311, 10007, toCompletion},
	}
	seed := int64(1)
	for _, camp := range []Camp{FatCamp, LeanCamp} {
		for _, cores := range []int{1, 4} {
			cfg := skipConfig(camp, cores, true)
			contexts := cfg.withDefaults().Contexts()
			for _, threads := range []int{1, contexts, 2 * contexts} {
				if testing.Short() && cores == 4 && threads > contexts {
					continue // 32 oversubscribed LC threads cycle by cycle: minutes under -race
				}
				for _, mix := range traceMixes {
					for wi, windows := range windowSets {
						for _, warm := range []int{0, 300} {
							seed++
							rng := rand.New(rand.NewSource(seed))
							c := skipCase{cfg: cfg, warm: warm, windows: windows}
							if threads > contexts {
								c.cfg.Quantum = 1500 // several switches per thread
							}
							for i := 0; i < threads; i++ {
								c.traces = append(c.traces, synthTrace(rng, mix, 400+rng.Intn(800)))
							}
							name := fmt.Sprintf("%v/cores=%d/threads=%d/%s/windows=%d/warm=%d", camp, cores, threads, mix.name, wi, warm)
							t.Run(name, func(t *testing.T) { c.check(t) })
						}
					}
				}
			}
		}
	}
}

// TestEventSkipEdgeCases pins the situations the quiet-interval query has
// to refuse to skip over, or skip to exactly.
func TestEventSkipEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	chase := traceMixes[1]
	cases := map[string]skipCase{
		// Warming eats whole traces: threads are finished, but unstamped,
		// when the window opens.
		"warm consumes every trace": {
			cfg: skipConfig(LeanCamp, 1, true), warm: 5000, windows: []uint64{50, toCompletion},
			traces: [][]traceOp{synthTrace(rng, chase, 200), synthTrace(rng, chase, 300)},
		},
		"empty trace beside a long one": {
			cfg: skipConfig(FatCamp, 1, true), windows: []uint64{toCompletion},
			traces: [][]traceOp{nil, synthTrace(rng, chase, 500)},
		},
		// A short thread ends while the long one it shares a context with
		// is switched out, so the run queue shrinks under a pending quantum.
		"queue shrinks under a pending switch": {
			cfg: func() Config { c := skipConfig(FatCamp, 1, true); c.Quantum = 900; return c }(), windows: []uint64{777, toCompletion},
			traces: [][]traceOp{synthTrace(rng, chase, 900), synthTrace(rng, traceMixes[0], 40), synthTrace(rng, chase, 60)},
		},
		// Private L2s: coherence transfers and their stall class.
		"SMP coherence": {
			cfg: skipConfig(FatCamp, 4, false), windows: []uint64{4001, toCompletion},
			traces: [][]traceOp{
				synthTrace(rng, traceMixes[3], 700), synthTrace(rng, traceMixes[3], 700),
				synthTrace(rng, traceMixes[2], 700), synthTrace(rng, traceMixes[2], 700),
			},
		},
		// The first window ends inside a memory stall and the warming that
		// follows eats the rest of the trace: the thread is finished while
		// its context is still blocked, and is owed a stamp at once.
		"thread finishes inside its stall": {
			cfg: skipConfig(LeanCamp, 1, true), windows: []uint64{150, toCompletion}, rewarm: 5000,
			traces: [][]traceOp{synthTrace(rng, chase, 100), synthTrace(rng, chase, 2000)},
		},
		// Thread 0 is switched out at cycle 0 and thread 1 does nothing but
		// drain one-line Exec records. Warming between the short windows
		// ends thread 0 while thread 1 is part-way through a record (the
		// third warm, at cycle 608, finds it with 12 instructions left):
		// the drain has to wait for the finished thread to be stamped.
		"queue-mate finishes during a drain": {
			cfg: skipConfig(FatCamp, 1, true), rewarm: 15,
			windows: []uint64{600, 3, 5, 3, 3, 3, toCompletion},
			traces:  [][]traceOp{synthTrace(rng, chase, 40), pureCompute(2000)},
		},
		// A window of zero cycles measures nothing and moves nothing.
		"zero-cycle window": {
			cfg: skipConfig(LeanCamp, 4, true), windows: []uint64{0, 5, 0, toCompletion},
			traces: [][]traceOp{synthTrace(rng, chase, 300), synthTrace(rng, chase, 300)},
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { c.check(t) })
	}
}

// TestEventSkipBackInvalidationCutsDrain forces the one event that can
// falsify a fetch a drain made ahead of time. Two cores loop over an
// eight-line code segment that stays in their L1Is, with mispredicts rare
// enough that one drain runs through many records; the third streams
// loads through the same few L2 sets, so its misses evict the code lines
// from the inclusive L2 and back-invalidate them from the L1Is in the
// middle of drains. The streamer takes each place in core order, so an
// invalidation falls in the cycle of a fetch made ahead both before and
// after the fetching core steps; at an issue rate above the records' 16
// instructions one cycle fetches two records. The drains have to be cut,
// and the result has to be the cycle-by-cycle loop's.
func TestEventSkipBackInvalidationCutsDrain(t *testing.T) {
	stream := make([]traceOp, 1500)
	for i := range stream {
		stream[i] = traceOp{kind: trace.Load, addr: mem.HeapBase + mem.Addr(i*mem.LineSize)}
	}
	for _, issue := range []int{2, 24} {
		// As many passes as the stream lasts: some 150 000 cycles.
		code := make([]traceOp, 1200*issue)
		for i := range code {
			code[i] = traceOp{kind: trace.Exec, addr: mem.CodeBase, size: 8 * mem.LineSize, n: 8 * 16}
		}
		cfg := Config{
			Camp: FatCamp, Cores: 3, FCIssue: issue, BranchEvery: 2000,
			Hier: cache.Config{L1ISize: 2 << 10, L1DSize: 2 << 10, L2Size: 4 << 10, L2Lat: 10, SharedL2: true},
		}
		for streamer := range 3 {
			traces := [][]traceOp{code, code, code}
			traces[streamer] = stream
			for _, c := range []skipCase{
				{cfg: cfg, traces: traces, windows: []uint64{toCompletion}},
				{cfg: cfg, traces: traces, windows: []uint64{137, 1, 2500, 311, 10007, toCompletion}},
				{cfg: cfg, traces: traces, windows: []uint64{toCompletion}, bigChunks: true},
			} {
				name := fmt.Sprintf("issue=%d/streamer=%d/windows=%d/bigChunks=%v", issue, streamer, len(c.windows), c.bigChunks)
				t.Run(name, func(t *testing.T) {
					if cuts, ok := c.check(t); ok && cuts == 0 {
						t.Errorf("%v: no drain was cut", c)
					}
				})
			}
		}
	}
}

// TestEventSkipDrainFetchesAhead pins what one drain takes at issue rate
// 2: the records that follow the current one are fetched ahead exactly
// when their fetch cycle is one the drain coasts past, and a record that
// starts at or after the last instruction drained is left for step.
func TestEventSkipDrainFetchesAhead(t *testing.T) {
	hot, cold := mem.CodeBase, mem.CodeBase+mem.LineSize
	cases := []struct {
		name        string
		execLeft    int
		untilBranch int
		next        []trace.Ref
		cycles      uint64
		fetched     int // records fetched ahead
		execAfter   int
	}{
		{"one-instruction record starts at the stop", 2, 1000,
			[]trace.Ref{trace.MakeExec(hot, 1), trace.MakeLoad(mem.HeapBase, false)}, 1, 0, 0},
		{"one-instruction record inside the last cycle", 3, 1000,
			[]trace.Ref{trace.MakeExec(hot, 1), trace.MakeLoad(mem.HeapBase, false)}, 2, 1, 0},
		{"two of three short records", 2, 1000,
			[]trace.Ref{trace.MakeExec(hot, 1), trace.MakeExec(hot, 1), trace.MakeExec(hot, 1), trace.MakeLoad(mem.HeapBase, false)}, 2, 2, 0},
		{"full records", 3, 1000,
			[]trace.Ref{trace.MakeExec(hot, 16), trace.MakeExec(hot, 16), trace.MakeLoad(mem.HeapBase, false)}, 17, 2, 1},
		{"a mispredict due", 3, 10,
			[]trace.Ref{trace.MakeExec(hot, 16), trace.MakeExec(hot, 16)}, 4, 1, 11},
		{"a line not most recently used", 5, 1000,
			[]trace.Ref{trace.MakeExec(cold, 16)}, 2, 0, 1},
		{"a mark", 5, 1000,
			[]trace.Ref{trace.MakeMark(1, true), trace.MakeExec(hot, 16)}, 2, 0, 1},
	}
	for _, tc := range cases {
		ch := NewChip(skipConfig(FatCamp, 1, true))
		ch.hier.WarmFetch(0, hot)
		c := ch.cores[0].core.(*fcCore)
		th := &Thread{ctx: c.ctx, chip: ch, cur: tc.next, execLeft: tc.execLeft, untilBranch: tc.untilBranch}
		c.ctx.threads = []*Thread{th}
		hits := ch.hier.Stats.L1IHits
		n := c.drain(0, never)
		if n != tc.cycles || th.pos != tc.fetched || th.execLeft != tc.execAfter || ch.hier.Stats.L1IHits-hits != uint64(tc.fetched) {
			t.Errorf("%s: %d cycles, %d records fetched (%d hits), %d instructions left; want %d, %d, %d",
				tc.name, n, th.pos, ch.hier.Stats.L1IHits-hits, th.execLeft, tc.cycles, tc.fetched, tc.execAfter)
		}
	}
}

// TestEventSkipReciprocal: the multiply drain divides by is exact for
// every issue rate a chip is likely to be given and every count it
// divides, maxDrain instructions at most.
func TestEventSkipReciprocal(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 16, 100, 1000, 1<<19 - 1} {
		m := newReciprocal(d)
		for n := uint64(0); n <= maxDrain; n++ {
			if got := m.of(n); got != n/uint64(d) {
				t.Fatalf("%d / %d: reciprocal gives %d", n, d, got)
			}
		}
	}
}

// TestEventSkipRandomTraces is the property: for any chip shape, thread
// count, trace contents and window sequence drawn from a seed, Chip.Run
// and the cycle-by-cycle loop agree on every window and every mark stamp.
func TestEventSkipRandomTraces(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := skipCase{cfg: skipConfig(Camp(rng.Intn(2)), 1+rng.Intn(4), rng.Intn(4) != 0)}
		c.cfg.Quantum = uint64(200 + rng.Intn(6000))
		c.cfg.SwitchCost = 1 + rng.Intn(200)
		c.cfg.CtxPerCore = 1 + rng.Intn(4)
		c.cfg.MLP = 1 + rng.Intn(8)
		c.cfg.Window = 8 << rng.Intn(6)
		c.cfg.FCIssue = 1 + rng.Intn(4)
		threads := 1 + rng.Intn(2*c.cfg.withDefaults().Contexts())
		for i := 0; i < threads; i++ {
			mix := traceMixes[rng.Intn(len(traceMixes))]
			c.traces = append(c.traces, synthTrace(rng, mix, rng.Intn(700)))
		}
		if rng.Intn(2) == 0 {
			c.warm = rng.Intn(500)
		}
		for n := rng.Intn(6); n > 0; n-- {
			c.windows = append(c.windows, uint64(rng.Intn(1<<uint(1+rng.Intn(14)))))
		}
		c.windows = append(c.windows, toCompletion)
		if rng.Intn(4) == 0 {
			c.rewarm = rng.Intn(300)
		}
		_, ok := c.check(t)
		return ok
	}
	count := 60
	if testing.Short() {
		count = 15
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}
