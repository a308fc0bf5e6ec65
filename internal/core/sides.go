// Placement of a request's sides on the host: which of the simulations a
// request consists of run beside one another, and what becomes of one that
// panics. Runner.Run's doc comment states the rule callers may rely on.

package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
)

// side is one simulation of a request.
type side struct {
	// label names the side in errors: the Side.Label it will carry.
	label string
	// hostPaced marks a side whose producers divide work among themselves
	// in host time — a cohort side at parts > 1 is the only kind — so that
	// its cycles move with what else the host runs. Nothing of the request
	// runs beside it.
	hostPaced bool
	run       func() (Side, error)
}

// PanicError is a panic in one side of a request: one on the goroutine
// that simulated it (the simulator, result assembly) or in a producer
// running as its coroutine (trace.Inline), which surfaces in the
// simulator's receive, recovered by runSide; or one in a side's producer
// goroutine, recovered by simulate. The request fails; the process and the
// Runner's other requests go on. What the side held — arenas, its
// hierarchy — is left to the collector, not recycled.
type PanicError struct {
	Side  string
	Value any
	// Stack is the panicking goroutine's stack, for whoever reports the
	// error to log once.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: %s side panicked: %v", e.Side, e.Value)
}

// runSide runs s, turning a panic into a *PanicError.
func runSide(s side) (out Side, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Side: s.label, Value: p, Stack: debug.Stack()}
		}
	}()
	return s.run()
}

// overlapSides reports whether a request of mode may run two sides at once:
// the host has a processor for the second, and what both run against is
// resident. A request that still has to load the database (or the TPC-C
// image) has both sides waiting for that load, and the second would take
// arenas of its own for the wait; it runs as it would on one processor.
func (r *Runner) overlapSides(mode Mode) bool {
	if runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if mode == ModeStagedOLTP {
		return r.master != nil
	}
	return r.tpch != nil
}

// runSides runs the sides of one request of mode, each through runSide, and
// returns what they measured in side order, or the first error in side
// order. Two consecutive sides that are not host-paced run together when
// overlapSides allows, the later one on a goroutine that has ended when
// runSides returns; every other side runs alone on the caller's. ctx is
// checked before each start.
func (r *Runner) runSides(ctx context.Context, mode Mode, sides ...side) ([]Side, error) {
	overlap := r.overlapSides(mode)
	out := make([]Side, len(sides))
	for i := 0; i < len(sides); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !overlap || i+1 == len(sides) || sides[i].hostPaced || sides[i+1].hostPaced {
			r.Sides.Sequential.Inc()
			var err error
			if out[i], err = runSide(sides[i]); err != nil {
				return nil, err
			}
			i++
			continue
		}
		r.Sides.Overlapped.Add(2)
		var twinErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			out[i+1], twinErr = runSide(sides[i+1])
		}()
		var err error
		out[i], err = runSide(sides[i])
		<-done
		if err != nil {
			return nil, err
		}
		if twinErr != nil {
			return nil, twinErr
		}
		i += 2
	}
	return out, nil
}
