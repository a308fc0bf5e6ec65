package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// panicker panics under a name the recovered stack must show.
func panicker() { panic("boom") }

// doWithin runs Do on a goroutine of its own and fails the test when it
// has not returned within a minute: a call nobody released.
func doWithin(t *testing.T, n int, fn func(int) error, fail func(int, error)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Do(n, fn, fail) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("Do has not returned: a call is waiting for a peer nobody released")
		return nil
	}
}

// TestDoFirstErrorInIndexOrder: the calls finish from the highest index
// down (each waits for the next), and two of them fail; Do returns the
// lower one's error although the higher one failed first.
func TestDoFirstErrorInIndexOrder(t *testing.T) {
	const n = 8
	for _, failing := range [][2]int{{2, 5}, {0, 7}, {6, 7}} {
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
		}
		err := doWithin(t, n, func(i int) error {
			defer close(done[i])
			if i+1 < n {
				<-done[i+1]
			}
			if i == failing[0] || i == failing[1] {
				return fmt.Errorf("call %d", i)
			}
			return nil
		}, nil)
		if want := fmt.Sprintf("call %d", failing[0]); err == nil || err.Error() != want {
			t.Errorf("calls %v fail: got %v, want %q", failing, err, want)
		}
	}
	if err := Do(n, func(int) error { return nil }, nil); err != nil {
		t.Errorf("no call fails: got %v", err)
	}
}

// TestDoPanicBecomesError: a panic, on the caller's goroutine (call 0) or
// on one of Do's, comes back as a *PanicError carrying the value and a
// stack that names the panicking function; the other calls still run.
func TestDoPanicBecomesError(t *testing.T) {
	for _, at := range []int{0, 3} {
		var ran atomic.Int32
		err := doWithin(t, 4, func(i int) error {
			ran.Add(1)
			if i == at {
				panicker()
			}
			return nil
		}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || pe.Label != "" || err.Error() != "panic: boom" {
			t.Fatalf("panic in call %d: got %v", at, err)
		}
		if !strings.Contains(string(pe.Stack), "par.panicker") {
			t.Errorf("panic in call %d: the stack does not name the panicking function:\n%s", at, pe.Stack)
		}
		if n := ran.Load(); n != 4 {
			t.Errorf("panic in call %d: %d calls ran, want 4", at, n)
		}
		pe.Label = "row"
		if got := pe.Error(); got != "panic in row: boom" {
			t.Errorf("labelled: %q", got)
		}
	}
}

// TestDoFailHook: fail runs once for every call that failed, with what it
// failed with, and never for one that did not; and it runs before the
// join, on the failing call's goroutine, so it can release a peer that
// would otherwise wait for ever.
func TestDoFailHook(t *testing.T) {
	const n = 6
	var hooked [n]atomic.Int32
	err := doWithin(t, n, func(i int) error {
		switch i % 3 {
		case 1:
			return errBoom
		case 2:
			panicker()
		}
		return nil
	}, func(i int, err error) {
		hooked[i].Add(1)
		var pe *PanicError
		if i%3 == 1 && !errors.Is(err, errBoom) || i%3 == 2 && !errors.As(err, &pe) || i%3 == 0 {
			t.Errorf("fail(%d, %v)", i, err)
		}
	})
	if !errors.Is(err, errBoom) {
		t.Errorf("got %v, want call 1's error", err)
	}
	for i := range hooked {
		if want := min(i%3, 1); int(hooked[i].Load()) != want {
			t.Errorf("call %d: fail ran %d times, want %d", i, hooked[i].Load(), want)
		}
	}

	// Call 0 waits for what only call 1's hook does; so does call 2, which
	// Do joins before it returns.
	for _, panics := range []bool{false, true} {
		release := make(chan struct{})
		err := doWithin(t, 3, func(i int) error {
			if i == 1 {
				if panics {
					panicker()
				}
				return errBoom
			}
			<-release
			return nil
		}, func(int, error) { close(release) })
		var pe *PanicError
		if panics && !errors.As(err, &pe) || !panics && !errors.Is(err, errBoom) {
			t.Errorf("panics=%v: got %v", panics, err)
		}
	}
}

// TestDoOneCall: one call runs once, on the caller's goroutine, with its
// error, its panic and its hook handled as for many; no call runs for n 0.
func TestDoOneCall(t *testing.T) {
	ran, hooked := 0, 0
	if err := Do(1, func(i int) error { ran++; return nil }, func(int, error) { hooked++ }); err != nil || ran != 1 || hooked != 0 {
		t.Errorf("clean call: err %v, ran %d, hooked %d", err, ran, hooked)
	}
	if err := Do(1, func(int) error { return errBoom }, func(int, error) { hooked++ }); err != errBoom || hooked != 1 {
		t.Errorf("failing call: err %v, hooked %d", err, hooked)
	}
	var pe *PanicError
	if err := Do(1, func(int) error { panicker(); return nil }, nil); !errors.As(err, &pe) {
		t.Errorf("panicking call: err %v", err)
	}
	if err := Do(0, func(int) error { ran++; return errBoom }, nil); err != nil || ran != 1 {
		t.Errorf("no calls: err %v, ran %d", err, ran)
	}
}
