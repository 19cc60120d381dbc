package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestScheduleFuncOrderingAndReuse: events fire in strict (At, seq)
// order, and recycling across RunUntil calls reuses the same backing
// objects without breaking FIFO ties.
func TestScheduleFuncOrderingAndReuse(t *testing.T) {
	q := NewEventQueue()
	var fired []string
	for round := 0; round < 3; round++ {
		base := Time(round * 100)
		q.ScheduleFunc(base+20, func(Time) { fired = append(fired, fmt.Sprintf("r%d-p20a", round)) })
		q.ScheduleFunc(base+20, func(Time) { fired = append(fired, fmt.Sprintf("r%d-p20b", round)) })
		q.ScheduleFunc(base+20, func(Time) { fired = append(fired, fmt.Sprintf("r%d-p20c", round)) })
		q.ScheduleFunc(base+10, func(Time) { fired = append(fired, fmt.Sprintf("r%d-p10", round)) })
		q.RunUntil(base + 99)
	}
	var want []string
	for r := 0; r < 3; r++ {
		want = append(want,
			fmt.Sprintf("r%d-p10", r), fmt.Sprintf("r%d-p20a", r),
			fmt.Sprintf("r%d-p20b", r), fmt.Sprintf("r%d-p20c", r))
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestScheduleFuncRescheduleFromFire: a pooled event's Fire scheduling
// the next pooled event (the DMA walker pattern) reuses the freed slot
// and never allocates past the first event.
func TestScheduleFuncRescheduleFromFire(t *testing.T) {
	q := NewEventQueue()
	var hops int
	var step func(now Time)
	step = func(now Time) {
		hops++
		if hops < 10 {
			q.ScheduleFunc(now+5, step)
		}
	}
	q.ScheduleFunc(0, step)
	end := q.Drain(0)
	if hops != 10 {
		t.Fatalf("hops = %d, want 10", hops)
	}
	if end != 45 {
		t.Fatalf("last event at %v, want 45", end)
	}
	if got := len(q.free); got != 1 {
		t.Fatalf("free list holds %d events, want 1 (the single recycled walker)", got)
	}
}
