package sim

import "testing"

// The event queue is the hottest object in the simulator: every DMA
// burst, packet arrival and timer goes through it. The benchmarks pin
// its allocation behaviour: ScheduleFunc stores entries by value in the
// heap's backing slice and must reach zero allocs/op once that slice
// has grown to its high-water mark.

// TestScheduleFuncSteadyStateZeroAlloc pins the value-heap contract as
// a plain test (it runs in every `go test`, not only under -bench):
// once the heap has reached its high-water mark, the schedule/fire
// cycle must not allocate at all. A regression here multiplies across
// every simulated DMA burst in every world.
func TestScheduleFuncSteadyStateZeroAlloc(t *testing.T) {
	q := NewEventQueueSize(16)
	fire := func(Time) {}
	// Warm: one full burst grows the heap to its high-water mark.
	for i := 0; i < 16; i++ {
		q.ScheduleFunc(Time(i), fire)
	}
	q.RunUntil(16)
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 16; k++ {
			q.ScheduleFunc(100+Time(k), fire)
		}
		q.RunUntil(200)
	})
	if allocs != 0 {
		t.Fatalf("warm ScheduleFunc cycle: %v allocs/op, want 0", allocs)
	}
}

// TestEventQueueSizeHint verifies the constructor reserves capacity up
// front — filling a fresh hinted queue to its hint allocates nothing —
// and that a zero or negative hint degrades to the plain empty queue.
func TestEventQueueSizeHint(t *testing.T) {
	q := NewEventQueueSize(8)
	if got := cap(q.h); got < 8 {
		t.Errorf("heap capacity %d, want >= 8", got)
	}
	const runs = 10
	fresh := make([]*EventQueue, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range fresh {
		fresh[i] = NewEventQueueSize(8)
	}
	fire := func(Time) {}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		q := fresh[next]
		next++
		for k := 0; k < 8; k++ {
			q.ScheduleFunc(Time(8-k), fire)
		}
	})
	if allocs != 0 {
		t.Errorf("filling a fresh hinted queue: %v allocs/op, want 0", allocs)
	}
	for _, hint := range []int{0, -3} {
		q := NewEventQueueSize(hint)
		if q.Len() != 0 || cap(q.h) != 0 {
			t.Errorf("hint %d: want plain empty queue", hint)
		}
	}
}

func BenchmarkScheduleFunc(b *testing.B) {
	q := new(EventQueue)
	fire := func(Time) {}
	// Warm the heap: the first round grows the backing slice to the one
	// slot reused forever after.
	q.ScheduleFunc(0, fire)
	q.RunUntil(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleFunc(Time(i+1), fire)
		q.RunUntil(Time(i + 2))
	}
}

// BenchmarkScheduleFuncBurst models a DMA transfer: a batch of events
// scheduled up front, then drained in order.
func BenchmarkScheduleFuncBurst(b *testing.B) {
	q := new(EventQueue)
	fire := func(Time) {}
	const batch = 16
	// Warm the heap to batch size.
	for i := 0; i < batch; i++ {
		q.ScheduleFunc(Time(i), fire)
	}
	q.RunUntil(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := Time(batch + i*batch)
		for k := 0; k < batch; k++ {
			q.ScheduleFunc(base+Time(k), fire)
		}
		q.RunUntil(base + batch)
	}
}
