package trace

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mem"
)

func TestRefEncoding(t *testing.T) {
	e := MakeExec(0x1234_5678_9ABC&^63, 100)
	if e.Kind() != Exec || e.Count() != 100 {
		t.Errorf("exec decode: kind=%v count=%d", e.Kind(), e.Count())
	}
	l := MakeLoad(0xDEAD_BEEF, true)
	if l.Kind() != Load || !l.Dep() || l.Addr() != 0xDEAD_BEEF {
		t.Errorf("load decode: %v dep=%v addr=%#x", l.Kind(), l.Dep(), uint64(l.Addr()))
	}
	s := MakeStore(0xCAFE)
	if s.Kind() != Store || s.Addr() != 0xCAFE {
		t.Errorf("store decode: %v addr=%#x", s.Kind(), uint64(s.Addr()))
	}
}

func TestRefEncodingProperty(t *testing.T) {
	f := func(a uint64, dep bool) bool {
		a &= 1<<48 - 1
		r := MakeLoad(mem.Addr(a), dep)
		return r.Kind() == Load && r.Addr() == mem.Addr(a) && r.Dep() == dep
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(n uint16) bool {
		c := int(n)%MaxExecCount + 1
		r := MakeExec(0x4000, c)
		return r.Kind() == Exec && r.Count() == c && !r.Dep()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestExecCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for count over MaxExecCount")
		}
	}()
	MakeExec(0, MaxExecCount+1)
}

func TestPipeRoundTrip(t *testing.T) {
	r, s := Pipe()
	seg := mem.CodeSeg{Base: mem.CodeBase, Size: 128} // 2 lines, 32 instructions
	go func() {
		r.Exec(seg, 20) // 16 on line 0, 4 on line 1
		r.Load(0x1000, false)
		r.Load(0x1040, true)
		r.Store(0x2000)
		r.Close()
		r.Close() // a second Close does nothing
	}()
	var got []Ref
	for {
		ref, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, ref)
	}
	want := []Ref{
		MakeExec(seg.Base, 16),
		MakeExec(seg.Base+64, 4),
		MakeLoad(0x1000, false),
		MakeLoad(0x1040, true),
		MakeStore(0x2000),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d refs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExecWrapsSegment(t *testing.T) {
	r, s := Pipe()
	seg := mem.CodeSeg{Base: 0x8000, Size: 64} // one line, 16 instructions
	go func() {
		r.Exec(seg, 40) // must wrap: 16+16+8 all on the same line
		r.Close()
	}()
	var total int
	for {
		ref, ok := s.Next()
		if !ok {
			break
		}
		if ref.Addr() != 0x8000 {
			t.Errorf("wrapped exec at %#x, want %#x", uint64(ref.Addr()), 0x8000)
		}
		total += ref.Count()
	}
	if total != 40 {
		t.Fatalf("total instructions %d, want 40", total)
	}
}

func TestRangeHelpers(t *testing.T) {
	r, s := Pipe()
	go func() {
		r.LoadRange(0x100F, 64+2) // spans lines 0x1000, 0x1040
		r.StoreRange(0x2000, 64)  // exactly one line
		r.Close()
	}()
	var loads, stores int
	for {
		ref, ok := s.Next()
		if !ok {
			break
		}
		switch ref.Kind() {
		case Load:
			loads++
		case Store:
			stores++
		}
	}
	if loads != 2 || stores != 1 {
		t.Fatalf("loads=%d stores=%d, want 2,1", loads, stores)
	}
}

func TestStopUnblocksProducer(t *testing.T) {
	r, s := Pipe()
	produced := make(chan struct{})
	go func() {
		// Emit far more than the channel can buffer.
		for i := 0; i < 100*chunkSize; i++ {
			r.Load(mem.Addr(i*64), false)
			if r.Stopped() {
				break
			}
		}
		r.Close()
		close(produced)
	}()
	// Consume a little, then stop.
	for i := 0; i < 10; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	s.Stop()
	<-produced // must not deadlock
	if !r.Stopped() {
		t.Error("recorder not stopped after Stop")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Exec(mem.CodeSeg{Base: 0, Size: 64}, 5)
	r.Load(0, false)
	r.Store(0)
	r.Close()
	if !r.Stopped() {
		t.Error("nil recorder should report stopped")
	}
}

func TestRecorderCounters(t *testing.T) {
	r, s := Pipe()
	go func() {
		r.Exec(mem.CodeSeg{Base: 0x4000, Size: 64}, 30)
		r.Load(0x1, false)
		r.Load(0x2, false)
		r.Store(0x3)
		r.Close()
	}()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if r.Instructions != 30 || r.Loads != 2 || r.Stores != 1 {
		t.Fatalf("counters = %d/%d/%d, want 30/2/1", r.Instructions, r.Loads, r.Stores)
	}
}

func TestStreamConsumedCount(t *testing.T) {
	r, s := Pipe()
	go func() {
		for i := 0; i < 100; i++ {
			r.Load(mem.Addr(i), false)
		}
		r.Close()
	}()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if s.Consumed != 100 {
		t.Fatalf("Consumed = %d, want 100", s.Consumed)
	}
}

// drainChunks receives every chunk of a stream.
func drainChunks(s *Stream) [][]Ref {
	var out [][]Ref
	for {
		c, ok, ended := s.RecvChunk(-1)
		if ended {
			return out
		}
		if ok {
			out = append(out, c)
		}
	}
}

// TestInlineMatchesPipe: the coroutine pipe delivers the chunks a channel
// pipe delivers — same boundaries, same records, the partial last chunk
// included — with the producer running only inside the consumer's receives.
func TestInlineMatchesPipe(t *testing.T) {
	const n = 3*chunkSize + 17
	produce := func(r *Recorder) {
		for i := 0; i < n; i++ {
			if i%5 == 0 {
				r.Store(mem.Addr(i * 64))
			} else {
				r.Load(mem.Addr(i*64), i%3 == 0)
			}
		}
	}
	pr, ps := Pipe()
	go func() {
		produce(pr)
		pr.Close()
	}()
	want := drainChunks(ps)

	ir, is := Inline()
	running, done := false, false
	is.SetProducer(func() {
		running = true
		produce(ir)
		done = true
	})
	if running {
		t.Fatal("producer started before the first receive")
	}
	got := drainChunks(is)
	if !done {
		t.Fatal("stream ended before the producer returned")
	}
	if len(got) != len(want) {
		t.Fatalf("%d chunks, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("chunk %d: %d records, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("chunk %d record %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if ir.Loads != pr.Loads || ir.Stores != pr.Stores {
		t.Errorf("counters %d/%d, want %d/%d", ir.Loads, ir.Stores, pr.Loads, pr.Stores)
	}
	if _, ok := is.Next(); ok {
		t.Error("record after the end of the stream")
	}
}

// TestInlineStop: stopping the consumer resumes a suspended producer with
// its recorder stopped, inside Stop, so nothing of it is left behind; a
// producer that never started never runs.
func TestInlineStop(t *testing.T) {
	r, s := Inline()
	emitted, returned := 0, false
	s.SetProducer(func() {
		for i := 0; i < 100*chunkSize && !r.Stopped(); i++ {
			emitted++
			r.Load(mem.Addr(i*64), false)
		}
		returned = true
	})
	for i := 0; i < 10; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	if emitted != chunkSize {
		t.Fatalf("producer ran %d records ahead, want one chunk (%d)", emitted, chunkSize)
	}
	s.Stop()
	if !returned || !r.Stopped() {
		t.Fatalf("after Stop: producer returned %v, recorder stopped %v", returned, r.Stopped())
	}
	if emitted != chunkSize {
		t.Errorf("producer recorded %d records after the stop", emitted-chunkSize)
	}
	// What the consumer already holds is still its to read; then the end.
	for i := 10; i < chunkSize; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream lost record %d of the chunk it had", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("stopped stream delivered a new chunk")
	}

	_, s = Inline()
	started := false
	s.SetProducer(func() { started = true })
	s.Stop()
	if _, ok := s.Next(); ok || started {
		t.Errorf("stopped before the first receive: record %v, producer started %v", ok, started)
	}
}

// TestInlineMisuse: an inline recorder has nowhere to put a chunk outside
// its producer function (it must not block forever instead), and only an
// inline stream takes a producer.
func TestInlineMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r, _ := Inline()
	mustPanic("flush outside the producer", func() {
		for i := 0; i < chunkSize; i++ {
			r.Load(mem.Addr(i*64), false)
		}
	})
	_, p := Pipe()
	mustPanic("SetProducer on a channel pipe", func() { p.SetProducer(func() {}) })
}

// endless gives the pipe r, s a producer that records loads of
// consecutive lines until its stream is stopped — on a goroutine of its own
// for a channel pipe, as the stream's coroutine for an inline one — and
// returns a channel closed when the producer has returned.
func endless(r *Recorder, s *Stream) <-chan struct{} {
	done := make(chan struct{})
	produce := func() {
		for i := 0; !r.Stopped(); i++ {
			r.Load(mem.Addr(i*mem.LineSize), false)
		}
		r.Close()
		close(done)
	}
	if r.inline {
		s.SetProducer(produce)
	} else {
		go produce()
	}
	return done
}

// pipeKinds builds a channel pipe and an inline one, by name.
var pipeKinds = []struct {
	name string
	make func() (*Recorder, *Stream)
}{{"pipe", Pipe}, {"inline", Inline}}

// TestRecycleSteadyStateAllocs: once as many chunks circulate as can be
// in flight at once, a consumer that hands every chunk back makes its
// producer allocate none.
func TestRecycleSteadyStateAllocs(t *testing.T) {
	for _, k := range pipeKinds {
		r, s := k.make()
		done := endless(r, s)
		take := func() {
			c, ok, _ := s.RecvChunk(-1)
			if !ok || len(c) != chunkSize {
				t.Fatalf("%s: chunk of %d records, ok %v", k.name, len(c), ok)
			}
			s.Recycle(c)
		}
		for i := 0; i < 4*(pipeDepth+2); i++ {
			take()
		}
		if a := testing.AllocsPerRun(500, take); a > 0.02 {
			t.Errorf("%s: %.3f allocations per chunk in the steady state, want 0", k.name, a)
		}
		s.Stop()
		<-done
	}
}

// TestRecycleWhileProducerRefills runs the consumer's hand-back against a
// producer refilling the chunks it gets back (under -race, a chunk written
// before the consumer has finished with it is a reported race): every
// record arrives once and in order, across a thousand chunks per pipe.
func TestRecycleWhileProducerRefills(t *testing.T) {
	kinds := append(pipeKinds, struct {
		name string
		make func() (*Recorder, *Stream)
	}{"small pipe", func() (*Recorder, *Stream) { return PipeSized(64, 2) }})
	for _, k := range kinds {
		r, s := k.make()
		done := endless(r, s)
		want := 0
		for chunks := 0; chunks < 1000; chunks++ {
			c, ok, _ := s.RecvChunk(-1)
			if !ok {
				t.Fatalf("%s: stream ended after %d records", k.name, want)
			}
			for _, ref := range c {
				if ref != MakeLoad(mem.Addr(want*mem.LineSize), false) {
					t.Fatalf("%s: record %d is %v", k.name, want, ref)
				}
				want++
			}
			s.Recycle(c)
		}
		s.Stop()
		<-done
	}
}

// TestRecycleAfterStop: handing chunks back to a stopped pipe, more than
// its free list holds, returns at once, keeps at most the free list's
// bound, and the producer has ended.
func TestRecycleAfterStop(t *testing.T) {
	for _, k := range pipeKinds {
		r, s := k.make()
		done := endless(r, s)
		c, ok, _ := s.RecvChunk(-1)
		if !ok {
			t.Fatalf("%s: no first chunk", k.name)
		}
		s.Stop()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: producer still running a minute after Stop", k.name)
		}
		for i := 0; i < 10*cap(s.free); i++ {
			s.Recycle(make([]Ref, 0, chunkSize))
		}
		s.Recycle(c)
		s.Recycle(nil)
		if len(s.free) != pipeDepth+2 {
			t.Errorf("%s: free list holds %d chunks, want its bound %d", k.name, len(s.free), pipeDepth+2)
		}
	}
}
