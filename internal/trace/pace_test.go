package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

// pacedProducer records before loads, asks for f at the consumer's pace,
// records after more loads and closes its recorder.
func pacedProducer(r *Recorder, before, after int, moot <-chan struct{}, f func()) {
	for i := 0; i < before; i++ {
		r.Load(mem.Addr(i*64), false)
	}
	r.AtPace(moot, f)
	for i := 0; i < after; i++ {
		r.Load(mem.Addr(i*64), false)
	}
	r.Close()
}

// awaitQueued returns when n chunks (records or pace tokens) wait in the
// pipe of s: its producer has sent everything up to its token and is blocked.
func awaitQueued(s *Stream, n int) {
	for len(s.ch) < n {
		runtime.Gosched()
	}
}

// drainNext consumes a stream through Next and returns how many records it
// carried.
func drainNext(s *Stream) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// TestAtPaceConsumerOrderDecides: two producers share a consumer; A asks
// first, but the consumer reaches B's token first, so B's function runs
// first.
func TestAtPaceConsumerOrderDecides(t *testing.T) {
	ra, sa := Pipe()
	rb, sb := Pipe()
	var order []string // written only inside paced functions: serialized by the consumer
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pacedProducer(ra, 3, 2, nil, func() { order = append(order, "A") })
	}()
	awaitQueued(sa, 2)
	go func() {
		defer wg.Done()
		pacedProducer(rb, 3, 2, nil, func() { order = append(order, "B") })
	}()
	awaitQueued(sb, 2)
	if len(order) != 0 {
		t.Fatalf("functions ran before any token was reached: %v", order)
	}
	if n := drainNext(sb); n != 5 {
		t.Errorf("B delivered %d records, want 5", n)
	}
	if n := drainNext(sa); n != 5 {
		t.Errorf("A delivered %d records, want 5", n)
	}
	wg.Wait()
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Errorf("functions ran in order %v, want [B A]", order)
	}
}

// TestAtPaceRunsInsideGrant: the function has not run when the consumer
// holds the token, has returned when Grant returns, and what the producer
// records afterwards arrives behind the token.
func TestAtPaceRunsInsideGrant(t *testing.T) {
	r, s := Pipe()
	var ran atomic.Bool
	go pacedProducer(r, 3, 4, nil, func() { ran.Store(true) })

	c, ok, _ := s.RecvChunk(-1)
	if !ok || len(c) != 3 {
		t.Fatalf("first chunk: %d records ok=%v, want the 3 recorded before the request", len(c), ok)
	}
	c, ok, _ = s.RecvChunk(-1)
	if !ok || len(c) != 0 {
		t.Fatalf("second chunk: %d records ok=%v, want a pace token", len(c), ok)
	}
	if ran.Load() {
		t.Fatal("the function ran before the consumer granted the request")
	}
	s.Grant()
	if !ran.Load() {
		t.Fatal("Grant returned before the function had")
	}
	c, ok, _ = s.RecvChunk(-1)
	if !ok || len(c) != 4 {
		t.Fatalf("chunk after the grant: %d records ok=%v, want 4", len(c), ok)
	}
	if _, _, ended := s.RecvChunk(-1); !ended {
		t.Fatal("stream did not end")
	}
}

// TestAtPaceMootReleases: closing moot releases a waiting producer without
// the consumer; the consumer passes the stale token without stopping — also
// when the same producer has queued a second request behind it, which is
// then granted at its own token — and a request made after the close runs at
// once and sends no token.
func TestAtPaceMootReleases(t *testing.T) {
	r, s := Pipe()
	moot := make(chan struct{})
	first, second := make(chan struct{}), make(chan struct{})
	var third atomic.Bool
	go func() {
		r.Load(0, false)
		r.AtPace(moot, func() { close(first) })
		r.Load(64, false)
		r.AtPace(nil, func() { close(second) })
		r.Load(128, false)
		r.AtPace(moot, func() { third.Store(true) })
		r.Close()
	}()
	awaitQueued(s, 2)
	select {
	case <-first:
		t.Fatal("the function ran with moot open and nothing granted")
	default:
	}
	close(moot)
	<-first
	// The released producer goes on to its second request: record chunk,
	// stale token, record chunk, second token.
	awaitQueued(s, 4)
	select {
	case <-second:
		t.Fatal("the second request ran before its token was reached")
	default:
	}
	if n := drainNext(s); n != 3 {
		t.Errorf("%d records, want 3", n)
	}
	<-second
	if !third.Load() {
		t.Error("a request made after moot closed did not run")
	}
}

// TestAtPaceStopReleases: stopping the stream releases a waiting producer,
// and the consumer then drains the stream without granting anything.
func TestAtPaceStopReleases(t *testing.T) {
	r, s := Pipe()
	ran := make(chan struct{})
	go pacedProducer(r, 3, 2, nil, func() { close(ran) })
	awaitQueued(s, 2)
	s.Stop()
	<-ran
	if n := drainNext(s); n != 3 {
		t.Errorf("%d records drained after Stop, want the 3 sent before it", n)
	}
}

// TestAtPaceUnpaceReleases: Unpace, called from another goroutine, releases
// a waiting producer without the consumer; the consumer passes the stale
// token without stopping, and the producer's later requests run at once and
// send none. Nil and Inline recorders take the call.
func TestAtPaceUnpaceReleases(t *testing.T) {
	r, s := Pipe()
	first := make(chan struct{})
	var second atomic.Bool
	go func() {
		r.Load(0, false)
		r.AtPace(nil, func() { close(first) })
		r.Load(64, false)
		r.AtPace(nil, func() { second.Store(true) })
		r.Close()
	}()
	awaitQueued(s, 2)
	select {
	case <-first:
		t.Fatal("the function ran with nothing granted")
	default:
	}
	r.Unpace()
	r.Unpace() // a second quitter of the group
	<-first
	if n := drainNext(s); n != 2 {
		t.Errorf("%d records, want 2", n)
	}
	if !second.Load() {
		t.Error("a request made after Unpace did not run")
	}

	(*Recorder)(nil).Unpace()
	ir, _ := Inline()
	ir.Unpace()
}

// TestAtPaceUnpacedRecorders: a nil recorder, an Inline one and one whose
// stream was stopped run the function on the spot and send no token.
func TestAtPaceUnpacedRecorders(t *testing.T) {
	ran := false
	(*Recorder)(nil).AtPace(nil, func() { ran = true })
	if !ran {
		t.Error("nil recorder did not run the function")
	}

	ir, is := Inline()
	ran = false
	is.SetProducer(func() {
		ir.Load(0, false)
		ir.AtPace(nil, func() { ran = true })
		ir.Load(64, false)
	})
	chunks := drainChunks(is)
	if !ran || len(chunks) != 1 || len(chunks[0]) != 2 {
		t.Errorf("inline recorder: ran=%v, chunks %v, want one chunk of both records", ran, chunks)
	}

	r, s := Pipe()
	s.Stop()
	ran = false
	r.AtPace(nil, func() { ran = true })
	if !ran || len(s.ch) != 0 {
		t.Errorf("stopped recorder: ran=%v with %d chunks sent, want it run and nothing sent", ran, len(s.ch))
	}
}
