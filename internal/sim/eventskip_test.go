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
}

func (c skipCase) String() string {
	return fmt.Sprintf("%v cores=%d threads=%d warm=%d rewarm=%d windows=%v quantum=%d sharedL2=%v",
		c.cfg.Camp, c.cfg.Cores, len(c.traces), c.warm, c.rewarm, c.windows, c.cfg.Quantum, c.cfg.Hier.SharedL2)
}

// measure plays the case on a fresh chip through run and returns every
// window's Result plus the mark stamps in delivery order. Small chunks
// keep the pump busy; the last window must run the traces to completion
// so the feeding goroutines exit.
func (c skipCase) measure(t *testing.T, run func(*Chip, uint64) Result) ([]Result, []markEvent) {
	t.Helper()
	ch := NewChip(c.cfg)
	var marks []markEvent
	ch.SetMarkHandler(func(thread int, id uint64, begin bool, cycle uint64) {
		marks = append(marks, markEvent{thread, id, begin, cycle})
	})
	for _, ops := range c.traces {
		rec, s := trace.PipeSized(64, 2)
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
	return results, marks
}

// check requires Chip.Run to reproduce the cycle-by-cycle loop exactly.
func (c skipCase) check(t *testing.T) bool {
	t.Helper()
	want, wantMarks := c.measure(t, runByCycle)
	got, gotMarks := c.measure(t, (*Chip).Run)
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
	return ok
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
		return c.check(t)
	}
	count := 60
	if testing.Short() {
		count = 15
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}
