package sim

// EventQueue is a deterministic time-ordered queue of deferred actions.
// Events model asynchronous hardware activity — a DMA transfer chunk
// completing, a network packet arriving — that must happen at a precise
// simulated time regardless of what the CPU is doing. Events with the
// same timestamp fire in the order they were scheduled, which keeps
// whole-simulation behaviour reproducible.
//
// The queue is a binary min-heap of value entries ordered by
// (at, seq). Entries hold no pointers of their own beyond the fire
// closure, so scheduling allocates nothing once the backing slice has
// reached its high-water mark, and sifting compares adjacent words
// instead of chasing one pointer per comparison.
//
// The queue does not own a clock; the machine drives it by calling
// RunUntil with the clock's current time after every modelled cost.
type EventQueue struct {
	h   []event
	seq uint64
}

// event is one pending entry: fire runs at simulated time at, with seq
// breaking ties FIFO among entries of equal at. (at, seq) is strictly
// total — seq is unique per queue — so the firing order never depends
// on how the heap happens to be laid out.
type event struct {
	at   Time
	seq  uint64
	fire func(now Time)
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// NewEventQueueSize returns an empty queue whose heap is pre-sized for
// roughly hint simultaneously pending events, so the first hint
// schedules avoid the append-growth reallocations that would otherwise
// show up as steady-state allocations in tight device loops.
func NewEventQueueSize(hint int) *EventQueue {
	if hint <= 0 {
		return &EventQueue{}
	}
	return &EventQueue{h: make([]event, 0, hint)}
}

// SnapshotSeq returns the queue's scheduling tie-break counter, for
// world snapshot/restore. Snapshots are only taken with the queue
// settled (Len() == 0), so the counter is the queue's entire state.
func (q *EventQueue) SnapshotSeq() uint64 { return q.seq }

// Reset discards every pending event without firing it and rewinds the
// tie-break counter to seq, as part of restoring a world snapshot.
func (q *EventQueue) Reset(seq uint64) {
	clear(q.h) // drop the closures eagerly
	q.h = q.h[:0]
	q.seq = seq
}

// ScheduleFunc enqueues fire at time at. No handle escapes and the
// entry is stored by value, so repeated scheduling is allocation-free
// once the heap has grown to its high-water mark. This is the hot path
// used by DMA transfer walkers and other device activity.
func (q *EventQueue) ScheduleFunc(at Time, fire func(now Time)) {
	q.seq++
	e := event{at: at, seq: q.seq, fire: fire}
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.h = h
}

// pop removes and returns the earliest entry. The queue must be
// non-empty.
func (q *EventQueue) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the closure eagerly
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	q.h = h
	return top
}

// NextAt returns the timestamp of the earliest pending event, or Never if
// the queue is empty.
func (q *EventQueue) NextAt() Time {
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].at
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
	e := q.pop() // pop before firing: fire may reschedule
	e.fire(e.at)
	return e.at, true
}

// RunUntil fires, in order, every event with At <= t. Events fired may
// schedule further events; those are honoured within the same call if
// they also fall at or before t.
func (q *EventQueue) RunUntil(t Time) {
	for len(q.h) > 0 && q.h[0].at <= t {
		e := q.pop()
		e.fire(e.at)
	}
}

// Drain fires every pending event regardless of timestamp, in time order,
// and returns the timestamp of the last event fired (or start if none).
// It is used at end of simulation to let in-flight transfers finish.
func (q *EventQueue) Drain(start Time) Time {
	last := start
	for len(q.h) > 0 {
		e := q.pop()
		if e.at > last {
			last = e.at
		}
		e.fire(e.at)
	}
	return last
}
