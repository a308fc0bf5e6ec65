package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// pacedThread executes work instructions, then takes its turn at the shared
// order through a paced request, then executes a little more.
func pacedThread(id, work int, order *[]int) func(r *trace.Recorder) {
	return func(r *trace.Recorder) {
		r.Exec(testSeg, work)
		r.AtPace(nil, func() { *order = append(*order, id) })
		r.Exec(testSeg, 64)
	}
}

// TestPacedRequestsFollowSimulatedTime: threads take their turns in the
// order the simulation reaches their requests, not in the order their
// producers made them: by simulated cycle in Run (thread 0 has the most
// work before its request, so it comes last) and thread by thread in Warm,
// which consumes a thread's whole prefix before it looks at the next thread.
func TestPacedRequestsFollowSimulatedTime(t *testing.T) {
	for _, camp := range []Camp{FatCamp, LeanCamp} {
		for _, tc := range []struct {
			name string
			work []int
			warm int
			want []int
		}{
			{"by cycle", []int{30000, 10000, 20000}, 0, []int{1, 2, 0}},
			{"warm by thread", []int{30000, 10000, 20000}, 1 << 20, []int{0, 1, 2}},
		} {
			var order []int // written inside paced functions only: one at a time
			ch := NewChip(testConfig(camp, 4))
			for id, work := range tc.work {
				ch.AddThread(feed(1, pacedThread(id, work, &order)))
			}
			if tc.warm > 0 {
				ch.Warm(tc.warm)
			}
			ch.Run(1 << 30)
			if !reflect.DeepEqual(order, tc.want) {
				t.Errorf("%v %s: turns taken in order %v, want %v", camp, tc.name, order, tc.want)
			}
		}
	}
}
