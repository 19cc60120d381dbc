package sim

import "testing"

// The event queue is the hottest object in the simulator: every DMA
// burst, packet arrival and timer goes through it. The benchmarks pin
// its allocation behaviour: ScheduleFunc recycles fired events through
// the queue's free list and must reach zero allocs/op once the pool is
// warm.

// TestScheduleFuncSteadyStateZeroAlloc pins the free-list contract as a
// plain test (it runs in every `go test`, not only under -bench): once
// the pool is warm and the heap has reached its high-water mark, the
// pooled schedule/fire cycle must not allocate at all. A regression
// here multiplies across every simulated DMA burst in every world.
func TestScheduleFuncSteadyStateZeroAlloc(t *testing.T) {
	q := NewEventQueueSize(16)
	fire := func(Time) {}
	// Warm: one full burst materializes the pooled Events.
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

// TestEventQueueSizeHint verifies the constructor reserves capacity
// without allocating Event objects up front, and that a zero or
// negative hint degrades to the plain empty queue.
func TestEventQueueSizeHint(t *testing.T) {
	q := NewEventQueueSize(8)
	if got := cap(q.h); got < 8 {
		t.Errorf("heap capacity %d, want >= 8", got)
	}
	if got := cap(q.free); got < 8 {
		t.Errorf("free-list capacity %d, want >= 8", got)
	}
	if got := len(q.h) + len(q.free); got != 0 {
		t.Errorf("pre-allocated %d events, want lazy construction", got)
	}
	for _, hint := range []int{0, -3} {
		q := NewEventQueueSize(hint)
		if q.Len() != 0 || cap(q.h) != 0 {
			t.Errorf("hint %d: want plain empty queue", hint)
		}
	}
}

func BenchmarkScheduleFunc(b *testing.B) {
	q := NewEventQueue()
	fire := func(Time) {}
	// Warm the pool: the first round allocates the one Event that is
	// recycled forever after.
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
	q := NewEventQueue()
	fire := func(Time) {}
	const batch = 16
	// Warm the pool to batch size.
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
