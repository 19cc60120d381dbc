package sim

import "testing"

func TestStepFiresEarliestOnly(t *testing.T) {
	q := new(EventQueue)
	var got []Time
	q.ScheduleFunc(30, func(now Time) { got = append(got, now) })
	q.ScheduleFunc(10, func(now Time) { got = append(got, now) })
	q.ScheduleFunc(20, func(now Time) { got = append(got, now) })

	at, ok := q.Step()
	if !ok || at != 10 {
		t.Fatalf("Step() = %v, %v; want 10, true", at, ok)
	}
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("fired %v, want [10]", got)
	}
	if q.Len() != 2 {
		t.Fatalf("Len() = %d after one step, want 2", q.Len())
	}
	q.Step()
	q.Step()
	if at, ok := q.Step(); ok || at != Never {
		t.Fatalf("Step() on empty queue = %v, %v; want Never, false", at, ok)
	}
	if want := []Time{10, 20, 30}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

func TestShardRunWindow(t *testing.T) {
	s := NewShard(8)
	var fired []Time
	record := func(now Time) { fired = append(fired, now) }
	s.Events.ScheduleFunc(5, record)
	s.Events.ScheduleFunc(10, func(now Time) {
		record(now)
		// Cascades inside the window are honoured.
		s.Events.ScheduleFunc(now+2, record)
	})
	s.Events.ScheduleFunc(40, record)

	if n := s.RunWindow(20); n != 3 {
		t.Fatalf("RunWindow(20) fired %d events, want 3", n)
	}
	if s.Clock.Now() != 12 {
		t.Fatalf("clock at %v after window, want 12 (last fired event)", s.Clock.Now())
	}
	if s.Fired != 3 {
		t.Fatalf("Fired = %d, want 3", s.Fired)
	}
	if n := s.RunWindow(100); n != 1 {
		t.Fatalf("second window fired %d, want 1", n)
	}
	if want := []Time{5, 10, 12, 40}; len(fired) != 4 || fired[3] != want[3] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestSplitSeed(t *testing.T) {
	if SplitSeed(42, 7) != SplitSeed(42, 7) {
		t.Fatal("SplitSeed is not pure")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100; i++ {
		s := SplitSeed(42, i)
		if seen[s] {
			t.Fatalf("stream %d collides with an earlier stream", i)
		}
		seen[s] = true
	}
	if SplitSeed(42, 0) == SplitSeed(43, 0) {
		t.Fatal("different bases yield the same stream 0")
	}
}
