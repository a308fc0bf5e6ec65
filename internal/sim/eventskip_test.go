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
	// hot, when set, sends seven in eight independent loads and stores to
	// one of that many lines every thread shares, and keeps the code to
	// the two segments that fit the L1I.
	hot int
}

var traceMixes = []traceMix{
	{name: "compute", exec: 12, depLoad: 1, load: 1, store: 1, prefetch: 0, mk: 1, maxExec: 400},
	{name: "chase", exec: 4, depLoad: 10, load: 1, store: 1, prefetch: 0, mk: 1, maxExec: 12},
	{name: "stream", exec: 4, depLoad: 0, load: 10, store: 3, prefetch: 4, mk: 1, maxExec: 16},
	{name: "mixed", exec: 5, depLoad: 4, load: 4, store: 3, prefetch: 2, mk: 2, maxExec: 90},
	// An aggregate's inner loop: short code runs between loads and stores
	// of a few accumulator lines, which every thread updates.
	{name: "accumulate", exec: 3, depLoad: 1, load: 6, store: 5, prefetch: 0, mk: 1, maxExec: 10, hot: 4},
}

// hotBase is where a mix's hot lines start, above synthTrace's other
// data regions.
const hotBase = mem.HeapBase + 32<<20

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
	// hotAddr is a word of one of the shared hot lines, or when the mix
	// has none or one in eight times, dataAddr's.
	hotAddr := func() mem.Addr {
		if mix.hot == 0 || rng.Intn(8) == 0 {
			return dataAddr()
		}
		return hotBase + mem.Addr(rng.Intn(mix.hot)*mem.LineSize+rng.Intn(8)*8)
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
			if mix.hot > 0 {
				seg = segs[rng.Intn(2)]
			}
			ops = append(ops, traceOp{kind: trace.Exec, addr: seg.Base, size: seg.Size, n: 1 + rng.Intn(mix.maxExec)})
		case k < mix.exec+mix.depLoad:
			ops = append(ops, traceOp{kind: trace.Load, addr: dataAddr(), dep: true})
		case k < mix.exec+mix.depLoad+mix.load:
			// Half the independent loads walk a sequential stream.
			a := hotAddr()
			if mix.hot == 0 && rng.Intn(2) == 0 {
				a, stream = stream, stream+mem.LineSize
			}
			ops = append(ops, traceOp{kind: trace.Load, addr: a})
		case k < mix.exec+mix.depLoad+mix.load+mix.store:
			ops = append(ops, traceOp{kind: trace.Store, addr: hotAddr()})
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
// each kind of cache.Loss cut. Small chunks keep the pump busy; the last
// window must run the traces to completion so the feeding goroutines exit.
func (c skipCase) measure(t *testing.T, run func(*Chip, uint64) Result) ([]Result, []markEvent, [3]uint64) {
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
// and returns how many of its drains each kind of cache.Loss cut.
func (c skipCase) check(t *testing.T) ([3]uint64, bool) {
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
					if cuts, ok := c.check(t); ok && cuts[cache.LostL1I] == 0 {
						t.Errorf("%v: no drain was cut", c)
					}
				})
			}
		}
	}
}

// TestEventSkipDataDrainCut forces the events that can falsify a load or
// a store a drain took ahead. Two cores loop over two lines of their own,
// loading and storing one, which stays Modified, and only loading the
// other; both stay most recently used in their L1Ds, and mispredicts are
// rare enough that one drain runs through many records. The third core,
// between code runs of varying length, stores to those lines (the
// writer), which takes them out of the drainers' L1Ds, or loads them (the
// reader), which downgrades the stored one to Shared. The
// disruptor takes each core position, so its access falls in the cycle of
// a record taken ahead both before and after the draining core steps; at
// issue rate 4 one cycle takes several records. The drains have to be cut
// by the loss each disruptor causes, and the result has to be the
// cycle-by-cycle loop's, under a shared L2 and under private ones.
func TestEventSkipDataDrainCut(t *testing.T) {
	lines := func(d int) (mem.Addr, mem.Addr) {
		x := mem.HeapBase + mem.Addr(d)<<12
		return x, x + mem.LineSize
	}
	drainer := func(d int) []traceOp {
		x, y := lines(d)
		var ops []traceOp
		for range 3000 {
			ops = append(ops,
				traceOp{kind: trace.Exec, addr: mem.CodeBase, size: mem.LineSize, n: 3},
				traceOp{kind: trace.Load, addr: x},
				traceOp{kind: trace.Store, addr: x + 8},
				traceOp{kind: trace.Load, addr: y},
				traceOp{kind: trace.Load, addr: y + 8},
				traceOp{kind: trace.Load, addr: x + 16, dep: true},
			)
		}
		return ops
	}
	disruptor := func(kind trace.Kind, targets []mem.Addr) []traceOp {
		var ops []traceOp
		for i := range 800 {
			ops = append(ops,
				traceOp{kind: trace.Exec, addr: mem.CodeBase + 1<<12, size: 4 * mem.LineSize, n: 1 + i*37%61},
				traceOp{kind: kind, addr: targets[i%len(targets)] + mem.Addr(i%8*8)})
		}
		return ops
	}
	for _, tc := range []struct {
		name string
		kind trace.Kind
		loss cache.Loss
	}{{"writer", trace.Store, cache.LostL1D}, {"reader", trace.Load, cache.LostModified}} {
		for _, issue := range []int{1, 4} {
			for _, shared := range []bool{true, false} {
				cfg := Config{
					Camp: FatCamp, Cores: 3, FCIssue: issue, BranchEvery: 3000,
					Hier: cache.Config{L2Size: 1 << 20, L2Lat: 10, SharedL2: shared},
				}
				for pos := range 3 {
					traces := make([][]traceOp, 3)
					var targets []mem.Addr
					for d := range 3 {
						if d != pos {
							traces[d] = drainer(d)
							x, y := lines(d)
							targets = append(targets, x, y)
						}
					}
					traces[pos] = disruptor(tc.kind, targets)
					for _, c := range []skipCase{
						{cfg: cfg, traces: traces, windows: []uint64{toCompletion}},
						{cfg: cfg, traces: traces, windows: []uint64{137, 1, 2500, 311, 10007, toCompletion}, bigChunks: true},
					} {
						name := fmt.Sprintf("%s/issue=%d/sharedL2=%v/disruptor=%d/windows=%d", tc.name, issue, shared, pos, len(c.windows))
						t.Run(name, func(t *testing.T) {
							cuts, ok := c.check(t)
							if ok && cuts[tc.loss] == 0 {
								t.Errorf("%v: no drain was cut by %v (cuts %v)", c, tc.loss, cuts)
							}
						})
					}
				}
			}
		}
	}
}

// TestEventSkipDrainFetchesAhead pins what one drain takes at issue rate
// 2: the records that follow the current one are taken ahead exactly
// when their cycle is one the drain coasts past, and a record that starts
// at or after the last instruction drained is left for step. A load
// joins on a most recently used L1D line, a store only on one that is
// also Modified, a dependent load only once the load it waits for is
// done or a load before it in the drain has hit; a load taken clears the
// dependence. The current record may be spent: a drain can start at a
// record boundary.
func TestEventSkipDrainFetchesAhead(t *testing.T) {
	hot, cold := mem.CodeBase, mem.CodeBase+mem.LineSize
	mod, shr := mem.HeapBase+1<<20, mem.HeapBase+1<<20+mem.LineSize // Modified and Shared L1D lines
	miss := trace.MakeLoad(mem.HeapBase, false)
	cases := []struct {
		name        string
		execLeft    int
		untilBranch int
		prevLoad    uint64 // prevLoadDone before the drain
		next        []trace.Ref
		cycles      uint64
		fetched     int // records taken ahead
		execAfter   int
		loadAfter   uint64 // prevLoadDone after it
	}{
		{"one-instruction record starts at the stop", 2, 1000, 0,
			[]trace.Ref{trace.MakeExec(hot, 1), miss}, 1, 0, 0, 0},
		{"one-instruction record inside the last cycle", 3, 1000, 0,
			[]trace.Ref{trace.MakeExec(hot, 1), miss}, 2, 1, 0, 0},
		{"two of three short records", 2, 1000, 0,
			[]trace.Ref{trace.MakeExec(hot, 1), trace.MakeExec(hot, 1), trace.MakeExec(hot, 1), miss}, 2, 2, 0, 0},
		{"full records", 3, 1000, 0,
			[]trace.Ref{trace.MakeExec(hot, 16), trace.MakeExec(hot, 16), miss}, 17, 2, 1, 0},
		{"a mispredict due", 3, 10, 0,
			[]trace.Ref{trace.MakeExec(hot, 16), trace.MakeExec(hot, 16)}, 4, 1, 11, 0},
		{"a line not most recently used", 5, 1000, 0,
			[]trace.Ref{trace.MakeExec(cold, 16)}, 2, 0, 1, 0},
		{"a mark", 5, 1000, 0,
			[]trace.Ref{trace.MakeMark(1, true), trace.MakeExec(hot, 16)}, 2, 0, 1, 0},
		{"loads and stores between code", 1, 1000, 0,
			[]trace.Ref{trace.MakeLoad(mod, false), trace.MakeStore(mod + 8), trace.MakeExec(hot, 1), trace.MakeLoad(shr, false), miss}, 2, 3, 0, 0},
		{"from a record boundary", 0, 1000, 0,
			[]trace.Ref{trace.MakeStore(mod), trace.MakeLoad(shr, false), trace.MakeExec(hot, 16), miss}, 9, 3, 0, 0},
		{"loads do not count towards a mispredict", 0, 3, 0,
			[]trace.Ref{trace.MakeLoad(mod, false), trace.MakeLoad(shr, false), trace.MakeExec(hot, 16)}, 2, 3, 14, 0},
		{"a store to a line not Modified", 5, 1000, 0,
			[]trace.Ref{trace.MakeStore(shr)}, 2, 0, 1, 0},
		{"a dependent load behind a missing load", 3, 1000, 10,
			[]trace.Ref{trace.MakeLoad(mod, true), trace.MakeExec(hot, 16)}, 1, 0, 1, 10},
		{"a dependent load whose load is done", 3, 1000, 1,
			[]trace.Ref{trace.MakeLoad(mod, true), trace.MakeExec(hot, 16)}, 10, 2, 0, 0},
		{"a dependent load after a hit", 1, 1000, 10,
			[]trace.Ref{trace.MakeLoad(shr, false), trace.MakeLoad(mod, true), trace.MakeExec(hot, 16)}, 9, 3, 1, 0},
		{"a load left for step keeps the dependence", 3, 1000, 10,
			[]trace.Ref{trace.MakeExec(hot, 1), trace.MakeLoad(shr, false), miss}, 2, 1, 0, 10},
	}
	for _, tc := range cases {
		ch := NewChip(skipConfig(FatCamp, 1, true))
		ch.hier.WarmFetch(0, hot)
		ch.hier.WarmWrite(0, mod)
		ch.hier.WarmRead(0, shr)
		c := ch.cores[0].core.(*fcCore)
		c.prevLoadDone = tc.prevLoad
		th := &Thread{ctx: c.ctx, chip: ch, cur: tc.next, execLeft: tc.execLeft, untilBranch: tc.untilBranch}
		c.ctx.threads = []*Thread{th}
		before := ch.hier.Stats
		n := c.drain(0, never)
		hits := ch.hier.Stats.L1IHits + ch.hier.Stats.L1DHits - before.L1IHits - before.L1DHits
		if n != tc.cycles || th.pos != tc.fetched || th.execLeft != tc.execAfter || hits != uint64(tc.fetched) || c.prevLoadDone != tc.loadAfter {
			t.Errorf("%s: %d cycles, %d records taken (%d hits), %d instructions left, prevLoadDone %d; want %d, %d, %d, %d",
				tc.name, n, th.pos, hits, th.execLeft, c.prevLoadDone, tc.cycles, tc.fetched, tc.execAfter, tc.loadAfter)
		}
	}
}

// TestEventSkipCutEqualsStepping pins what a cut restores: after a drain
// on one core and another core's store to (both losses) or load of (a
// downgrade) a line the drain took a store of, the thread and the core
// are where stepping the same cycles, with that access made first, leaves
// them: position, instructions left, branch counter, records consumed,
// instruction index, the load dependence and the hit counts.
func TestEventSkipCutEqualsStepping(t *testing.T) {
	hot := mem.CodeBase
	shr, x := mem.HeapBase+1<<20, mem.HeapBase+2<<20+5*mem.LineSize // different L1D sets
	// The first cut falls on the store of x, after a load in the first
	// list and before any in the second.
	lists := [][]trace.Ref{{
		trace.MakeExec(hot, 3), trace.MakeLoad(shr, false), trace.MakeStore(x), trace.MakeExec(hot, 5),
		trace.MakeLoad(x, true), trace.MakeLoad(shr, true), trace.MakeStore(x + 8), trace.MakeExec(hot, 16),
		trace.MakeLoad(x, false), trace.MakeExec(hot, 16),
	}, {
		trace.MakeExec(hot, 3), trace.MakeStore(x), trace.MakeLoad(shr, false), trace.MakeExec(hot, 5),
		trace.MakeLoad(x, true), trace.MakeExec(hot, 16), trace.MakeLoad(shr, true), trace.MakeExec(hot, 16),
	}}
	type state struct {
		pos, execLeft, untilBranch  int
		consumed, instrIdx, loadDue uint64
		l1iHits, l1dHits            uint64
	}
	for li, recs := range lists {
		for _, issue := range []int{1, 2, 3} {
			for _, peer := range []trace.Kind{trace.Store, trace.Load} {
				for _, prev := range []uint64{0, 40} {
					// build returns core 0 of a two-core chip with the records
					// ahead of its thread, two instructions left of the current
					// one, and core 1's access to x.
					build := func() (*Chip, *fcCore, *Thread, func()) {
						cfg := skipConfig(FatCamp, 2, true)
						cfg.FCIssue = issue
						ch := NewChip(cfg)
						ch.hier.WarmFetch(0, hot)
						ch.hier.WarmRead(0, shr)
						ch.hier.WarmWrite(0, x)
						c := ch.cores[0].core.(*fcCore)
						c.prevLoadDone = prev
						th := &Thread{ctx: c.ctx, chip: ch, cur: recs, execLeft: 2, untilBranch: 1000}
						c.ctx.threads = []*Thread{th}
						access := func() { ch.hier.Write(1, x, 0) }
						if peer == trace.Load {
							access = func() { ch.hier.Read(1, x, 0) }
						}
						return ch, c, th, access
					}
					snap := func(ch *Chip, c *fcCore, th *Thread) state {
						return state{th.pos, th.execLeft, th.untilBranch, th.consumed, c.instrIdx, c.prevLoadDone,
							ch.hier.Stats.L1IHits, ch.hier.Stats.L1DHits}
					}
					name := fmt.Sprintf("list=%d/issue=%d/peer=%v/prevLoadDone=%d", li, issue, peer, prev)

					ch, c, th, access := build()
					if n := c.drain(0, never); n == 0 {
						t.Fatalf("%s: nothing drained", name)
					}
					access()
					if ch.cuts == [3]uint64{} {
						t.Fatalf("%s: the drain was not cut", name)
					}
					f, got := ch.cores[0].until, snap(ch, c, th)

					ch, c, th, access = build()
					access()
					for now := uint64(0); now < f; now++ {
						c.step(now)
					}
					if want := snap(ch, c, th); got != want {
						t.Errorf("%s: cut back to cycle %d leaves %+v; stepping leaves %+v", name, f, got, want)
					}
				}
			}
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
	count := 200
	if testing.Short() {
		count = 15
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}
