package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{640 * Nanosecond, "640ns"},
		{1100 * Nanosecond, "1.1µs"},
		{18600 * Nanosecond, "18.6µs"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{Never, "never"},
		{-640 * Nanosecond, "-640ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestHzPeriod(t *testing.T) {
	cases := []struct {
		f    Hz
		want Time
	}{
		{150 * MHz, 6667},     // 6.667 ns, rounded to nearest ps
		{12_500_000, 80_000},  // 12.5 MHz TurboChannel: 80 ns
		{33 * MHz, 30303},     // PCI-33
		{66 * MHz, 15152},     // PCI-66
		{1 * GHz, Nanosecond}, // exact
	}
	for _, c := range cases {
		if got := c.f.Period(); got != c.want {
			t.Errorf("%v.Period() = %dps, want %dps", c.f, int64(got), int64(c.want))
		}
	}
}

func TestHzCyclesRoundTrip(t *testing.T) {
	f := 12_500_000 * Hz(1) // exact 80ns period
	if d := f.Cycles(6); d != 480*Nanosecond {
		t.Fatalf("6 bus cycles = %v, want 480ns", d)
	}
	if n := f.CyclesIn(480 * Nanosecond); n != 6 {
		t.Fatalf("CyclesIn(480ns) = %d, want 6", n)
	}
}

func TestHzString(t *testing.T) {
	if got := Hz(12_500_000).String(); got != "12.5MHz" {
		t.Errorf("12.5 MHz formats as %q", got)
	}
	if got := (2 * GHz).String(); got != "2GHz" {
		t.Errorf("2 GHz formats as %q", got)
	}
	if got := Hz(440).String(); got != "440Hz" {
		t.Errorf("440 Hz formats as %q", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.Advance(80 * Nanosecond)
	c.Advance(0)
	if c.Now() != 80*Nanosecond {
		t.Fatalf("clock at %v, want 80ns", c.Now())
	}
	c.AdvanceTo(40 * Nanosecond) // backwards: ignored
	if c.Now() != 80*Nanosecond {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(200 * Nanosecond)
	if c.Now() != 200*Nanosecond {
		t.Fatalf("AdvanceTo did not move clock forward: %v", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestEventQueueOrdering(t *testing.T) {
	q := new(EventQueue)
	var got []int
	q.ScheduleFunc(30, func(Time) { got = append(got, 3) })
	q.ScheduleFunc(10, func(Time) { got = append(got, 1) })
	q.ScheduleFunc(20, func(Time) { got = append(got, 2) })
	q.RunUntil(25)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("events up to t=25 fired as %v, want [1 2]", got)
	}
	q.RunUntil(100)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("remaining events fired as %v, want [1 2 3]", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining: %d left", q.Len())
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	q := new(EventQueue)
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		q.ScheduleFunc(50, func(Time) { got = append(got, i) })
	}
	q.RunUntil(50)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events fired out of order: %v", got)
		}
	}
}

func TestEventQueueRescheduleDuringFire(t *testing.T) {
	q := new(EventQueue)
	var got []Time
	q.ScheduleFunc(10, func(now Time) {
		got = append(got, now)
		q.ScheduleFunc(now+5, func(now Time) { got = append(got, now) })
		q.ScheduleFunc(now+50, func(now Time) { got = append(got, now) })
	})
	q.RunUntil(20)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("cascaded events = %v, want [10 15]", got)
	}
	if q.NextAt() != 60 {
		t.Fatalf("NextAt = %v, want 60", q.NextAt())
	}
}

func TestEventQueueDrain(t *testing.T) {
	q := new(EventQueue)
	n := 0
	q.ScheduleFunc(100, func(Time) { n++ })
	q.ScheduleFunc(900, func(Time) { n++ })
	last := q.Drain(50)
	if n != 2 || last != 900 {
		t.Fatalf("Drain fired %d events, last at %v; want 2 events, last 900", n, last)
	}
	if q.Drain(42) != 42 {
		t.Fatal("Drain of empty queue should return start time")
	}
}

func TestEventQueueNextAtEmpty(t *testing.T) {
	if new(EventQueue).NextAt() != Never {
		t.Fatal("empty queue NextAt should be Never")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10_000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) over 10k draws only produced %d distinct values", len(seen))
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// Property: clock time after a sequence of Advance calls equals the sum of
// the durations, i.e. advancing is associative and lossless.
func TestClockAdvanceSums(t *testing.T) {
	err := quick.Check(func(steps []uint16) bool {
		c := NewClock()
		var sum Time
		for _, s := range steps {
			d := Time(s)
			sum += d
			c.Advance(d)
		}
		return c.Now() == sum
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
