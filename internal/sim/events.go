package sim

import "container/heap"

// Event is a deferred action scheduled on an EventQueue. Events model
// asynchronous hardware activity — a DMA transfer chunk completing, a
// network packet arriving — that must happen at a precise simulated time
// regardless of what the CPU is doing.
type Event struct {
	// At is the simulated time the event fires.
	At Time
	// Fire performs the event's effect. It runs with the clock already
	// advanced to at least At.
	Fire func(now Time)

	seq uint64 // tie-breaker: FIFO among events with equal At
}

// EventQueue is a deterministic time-ordered queue of events. Events with
// the same timestamp fire in the order they were scheduled, which keeps
// whole-simulation behaviour reproducible.
//
// The queue does not own a clock; the machine drives it by calling
// RunUntil with the clock's current time after every modelled cost.
type EventQueue struct {
	h    eventHeap
	seq  uint64
	free []*Event // fired events, recycled by ScheduleFunc
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// NewEventQueueSize returns an empty queue whose heap and free list are
// pre-sized for roughly hint simultaneously pending events. Only
// capacity is reserved — no Event objects are allocated up front — so
// construction stays cheap while the first hint schedules avoid the
// append-growth reallocations that would otherwise show up as steady-
// state allocations in tight device loops.
func NewEventQueueSize(hint int) *EventQueue {
	if hint <= 0 {
		return &EventQueue{}
	}
	return &EventQueue{
		h:    make(eventHeap, 0, hint),
		free: make([]*Event, 0, hint),
	}
}

// SnapshotSeq returns the queue's scheduling tie-break counter, for
// world snapshot/restore. Snapshots are only taken with the queue
// settled (Len() == 0), so the counter is the queue's entire state.
func (q *EventQueue) SnapshotSeq() uint64 { return q.seq }

// Reset discards every pending event without firing it and rewinds the
// tie-break counter to seq, as part of restoring a world snapshot.
// Discarded events return to the free list.
func (q *EventQueue) Reset(seq uint64) {
	for i, e := range q.h {
		q.release(e)
		q.h[i] = nil
	}
	q.h = q.h[:0]
	q.seq = seq
}

// ScheduleFunc enqueues fire at time at. No handle escapes, so the
// Event object is recycled through an internal free list once it
// fires, making repeated scheduling allocation-free. This is the hot
// path used by DMA transfer walkers and other device activity.
func (q *EventQueue) ScheduleFunc(at Time, fire func(now Time)) {
	q.seq++
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	e.At, e.Fire, e.seq = at, fire, q.seq
	heap.Push(&q.h, e)
}

// release returns an event to the free list. Called after the event
// has been popped and its Fire/At copied out.
func (q *EventQueue) release(e *Event) {
	e.Fire = nil // drop the closure eagerly
	q.free = append(q.free, e)
}

// Len reports how many events are pending.
func (q *EventQueue) Len() int { return len(q.h) }

// NextAt returns the timestamp of the earliest pending event, or Never if
// the queue is empty.
func (q *EventQueue) NextAt() Time {
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].At
}

// Step pops and fires exactly the earliest pending event, returning
// its timestamp. It reports false (firing nothing) on an empty queue.
// The sharded engine drives shards one event at a time so it can
// advance the shard clock to each event and count fired events for the
// host-throughput metric; RunUntil remains the single-world fast path.
func (q *EventQueue) Step() (Time, bool) {
	if len(q.h) == 0 {
		return Never, false
	}
	e := heap.Pop(&q.h).(*Event)
	fire, at := e.Fire, e.At
	q.release(e) // recycle before firing: fire may reschedule
	fire(at)
	return at, true
}

// RunUntil fires, in order, every event with At <= t. Events fired may
// schedule further events; those are honoured within the same call if
// they also fall at or before t.
func (q *EventQueue) RunUntil(t Time) {
	for len(q.h) > 0 && q.h[0].At <= t {
		e := heap.Pop(&q.h).(*Event)
		fire, at := e.Fire, e.At
		q.release(e) // recycle before firing: fire may reschedule
		fire(at)
	}
}

// Drain fires every pending event regardless of timestamp, in time order,
// and returns the timestamp of the last event fired (or start if none).
// It is used at end of simulation to let in-flight transfers finish.
func (q *EventQueue) Drain(start Time) Time {
	last := start
	for len(q.h) > 0 {
		e := heap.Pop(&q.h).(*Event)
		fire, at := e.Fire, e.At
		if at > last {
			last = at
		}
		q.release(e)
		fire(at)
	}
	return last
}

// eventHeap implements heap.Interface ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
