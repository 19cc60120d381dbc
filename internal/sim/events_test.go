package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestScheduleFuncOrderingAndReuse: events fire in strict (At, seq)
// order, and recycling across RunUntil calls reuses the same backing
// objects without breaking FIFO ties.
func TestScheduleFuncOrderingAndReuse(t *testing.T) {
	q := new(EventQueue)
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

// TestScheduleFuncRescheduleFromFire: an event's fire scheduling the
// next event (the DMA walker pattern) reuses the slot its own pop freed,
// so a warm walker chain never allocates.
func TestScheduleFuncRescheduleFromFire(t *testing.T) {
	q := new(EventQueue)
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
	allocs := testing.AllocsPerRun(100, func() {
		hops = 0
		q.ScheduleFunc(0, step)
		q.Drain(0)
	})
	if allocs != 0 {
		t.Fatalf("warm walker chain: %v allocs/op, want 0", allocs)
	}
}

// refQueue is the reference model for TestEventQueueMatchesReference:
// a slice kept sorted by (at, seq), fired from the front.
type refQueue struct {
	evs []refEvent
	seq uint64
}

type refEvent struct {
	at         Time
	seq        uint64
	id, depth  int
	childDelay Time // < 0: firing schedules nothing
}

func (r *refQueue) schedule(e refEvent) {
	r.seq++
	e.seq = r.seq
	i, _ := slices.BinarySearchFunc(r.evs, e, func(a, b refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	r.evs = slices.Insert(r.evs, i, e)
}

func (r *refQueue) pop() refEvent {
	e := r.evs[0]
	r.evs = slices.Delete(r.evs, 0, 1)
	return e
}

// firing is one observed fire call: which event, at what time.
type firing struct {
	id int
	at Time
}

// childDelay decides, from an event's id and chain depth alone, whether
// firing it schedules a child and how far ahead: often zero (an equal
// timestamp behind everything already pending at that instant), never
// past depth 3, so every stream terminates.
func childDelay(id, depth int) Time {
	if depth >= 3 || id%3 != 0 {
		return -1
	}
	return Time(id % 4)
}

// TestEventQueueMatchesReference drives the heap and the sorted-slice
// reference with the same seeded streams of ScheduleFunc, RunUntil,
// Step, Drain and Reset — timestamps drawn from a narrow range so
// equal-time ties are common, and a third of the events rescheduling a
// child from inside fire — and requires the same firing sequence, the
// same return values and the same Len, NextAt and SnapshotSeq after
// every operation.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRand(seed)
		q := NewEventQueueSize(int(seed % 8))
		ref := &refQueue{}
		var got, want []firing
		nextID, refNextID := 0, 0

		var sched func(at Time, depth int)
		sched = func(at Time, depth int) {
			id, d := nextID, childDelay(nextID, depth)
			nextID++
			q.ScheduleFunc(at, func(now Time) {
				got = append(got, firing{id, now})
				if d >= 0 {
					sched(now+d, depth+1)
				}
			})
		}
		refSched := func(at Time, depth int) {
			ref.schedule(refEvent{at: at, id: refNextID, depth: depth, childDelay: childDelay(refNextID, depth)})
			refNextID++
		}
		refFire := func() Time {
			e := ref.pop()
			want = append(want, firing{e.id, e.at})
			if e.childDelay >= 0 {
				refSched(e.at+e.childDelay, e.depth+1)
			}
			return e.at
		}

		var cursor Time
		for op := 0; op < 300; op++ {
			what := ""
			switch k := rng.Intn(20); {
			case k < 10:
				what = "schedule"
				for n := 1 + rng.Intn(4); n > 0; n-- {
					at := cursor + Time(rng.Intn(12))
					sched(at, 0)
					refSched(at, 0)
				}
			case k < 14:
				what = "RunUntil"
				cursor += Time(rng.Intn(8))
				q.RunUntil(cursor)
				for len(ref.evs) > 0 && ref.evs[0].at <= cursor {
					refFire()
				}
			case k < 17:
				what = "Step"
				at, ok := q.Step()
				wantAt, wantOK := Never, false
				if len(ref.evs) > 0 {
					wantAt, wantOK = refFire(), true
				}
				if at != wantAt || ok != wantOK {
					t.Fatalf("seed %d op %d: Step() = (%v, %v), reference (%v, %v)", seed, op, at, ok, wantAt, wantOK)
				}
			case k < 19:
				what = "Drain"
				start := cursor + Time(rng.Intn(6))
				last := q.Drain(start)
				wantLast := start
				for len(ref.evs) > 0 {
					if at := refFire(); at > wantLast {
						wantLast = at
					}
				}
				if last != wantLast {
					t.Fatalf("seed %d op %d: Drain(%v) = %v, reference %v", seed, op, start, last, wantLast)
				}
			default:
				what = "Reset"
				seq := rng.Uint64() % (ref.seq + 1)
				q.Reset(seq)
				ref.evs, ref.seq = ref.evs[:0], seq
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d (%s): fired %v, reference %v", seed, op, what, got, want)
			}
			wantNext := Never
			if len(ref.evs) > 0 {
				wantNext = ref.evs[0].at
			}
			if q.Len() != len(ref.evs) || q.NextAt() != wantNext || q.SnapshotSeq() != ref.seq {
				t.Fatalf("seed %d op %d (%s): Len/NextAt/SnapshotSeq = %d/%v/%d, reference %d/%v/%d",
					seed, op, what, q.Len(), q.NextAt(), q.SnapshotSeq(), len(ref.evs), wantNext, ref.seq)
			}
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: no event fired — stream is vacuous", seed)
		}
	}
}
