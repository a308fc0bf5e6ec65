// Package par is the one way work fans out to goroutines that are joined:
// morsel workers, a parallel join's build phases, partition schedulers,
// staged consumers, concurrent clients, and a simulation's producer beside
// its chip. Do joins every call, turns a panic into an error, lets a failing
// call release the peers that would otherwise wait for it, and reports the
// first error in index order: one failure policy instead of one per site.
//
// Goroutines whose lifetime is not one call's stay outside it, each for its
// reason: the share registry's producer incarnation, its scan workers and
// their drain outlive the query that started them (the registry waits for
// them itself, WaitIdle); the server's job and shutdown goroutines outlive
// the HTTP request that started them; and txn's waitCond watcher ends when
// its condition is signalled, not when a caller joins it.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic in one call of Do, recovered on the goroutine that
// ran it.
type PanicError struct {
	// Label names what panicked (a request's side, say). Do leaves it
	// empty; the innermost caller that knows a name sets it.
	Label string
	Value any
	// Stack is the panicking goroutine's stack, for whoever reports the
	// error to log once.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Label == "" {
		return fmt.Sprintf("panic: %v", e.Value)
	}
	return fmt.Sprintf("panic in %s: %v", e.Label, e.Value)
}

// Do runs fn(i) for every i in [0, n) and returns when every call has
// returned: fn(0) on the caller's goroutine, the others on goroutines of
// their own. A call that panics returns a *PanicError. A call that fails,
// with an error or a panic, runs fail(i, err) on its own goroutine before
// Do returns: that is where a site releases the peers that would otherwise
// wait for it for ever (morsel workers waiting for paced claims, partitions
// waiting on a commit clock, a source waiting for a free packet). fail may
// be nil. Do returns the first error in index order, whatever order the
// calls finished in.
func Do(n int, fn func(i int) error, fail func(i int, err error)) error {
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = &PanicError{Value: p, Stack: debug.Stack()}
			}
			if errs[i] != nil && fail != nil {
				fail(i, errs[i])
			}
		}()
		errs[i] = fn(i)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	if n > 0 {
		call(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
