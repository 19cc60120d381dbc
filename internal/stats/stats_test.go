package stats

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"uldma/internal/sim"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, v := range []sim.Time{10, 20, 30, 40} {
		s.Add(v)
	}
	if s.N() != 4 || s.Mean() != 25 || s.Min() != 10 || s.Max() != 40 {
		t.Fatalf("mean=%v min=%v max=%v", s.Mean(), s.Min(), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	var sorted []sim.Time
	for i := 1; i <= 100; i++ {
		s.Add(sim.Time(101 - i))
		sorted = append(sorted, sim.Time(i))
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{{0, 1}, {50, 50}, {99, 99}, {100, 100}, {-5, 1}, {200, 100}}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(sorted, %.0f) = %v, want %v", c.p, got, c.want)
		}
	}
	var empty Sample
	if empty.Percentile(50) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// Property: Min <= Percentile(p) <= Max and Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(sim.Time(v))
		}
		a, b := float64(aRaw%101), float64(bRaw%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := s.Percentile(a), s.Percentile(b)
		return s.Min() <= pa && pa <= pb && pb <= s.Max()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var s Sample
	if !strings.Contains(s.Histogram(5), "no samples") {
		t.Fatal("empty histogram")
	}
	s.Add(7)
	s.Add(7)
	if got := s.Histogram(5); !strings.Contains(got, "x2") {
		t.Fatalf("degenerate histogram: %q", got)
	}
	for i := 1; i <= 100; i++ {
		s.Add(sim.Time(i))
	}
	out := s.Histogram(4)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("histogram lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars:\n%s", out)
	}
	// Total counted equals total samples.
	total := 0
	for _, l := range lines {
		var a, b string
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "%s %d", &a, &c); err != nil {
			// Fallback: count via fields (bar may be absent).
			f := strings.Fields(l)
			if len(f) >= 2 {
				fmt.Sscanf(f[1], "%d", &c)
			}
		}
		_ = b
		total += c
	}
	if total != 102 {
		t.Fatalf("histogram counted %d samples, want 102\n%s", total, out)
	}
	if s.Histogram(0) == "" {
		t.Fatal("default bucket count")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("DMA algorithm", "paper", "measured")
	tb.AddRow("Kernel-level DMA", "18.6µs", "18.59µs")
	tb.AddRow("Ext. Shadow Addressing", "1.1µs", "1.05µs")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "DMA algorithm") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/separator malformed:\n%s", out)
	}
	// Columns aligned: "paper" column starts at the same offset in all rows.
	idx0 := strings.Index(lines[2], "18.6µs")
	idx1 := strings.Index(lines[3], "1.1µs")
	if idx0 != idx1 {
		t.Fatalf("column misaligned:\n%s", out)
	}
}

func TestRatioAndDelta(t *testing.T) {
	if Ratio(20, 10) != "2.0x" {
		t.Fatalf("Ratio = %s", Ratio(20, 10))
	}
	if Ratio(1, 0) != "inf" {
		t.Fatal("zero denominator")
	}
	if DeltaPercent(110, 100) != "+10.0%" {
		t.Fatalf("DeltaPercent = %s", DeltaPercent(110, 100))
	}
	if DeltaPercent(90, 100) != "-10.0%" {
		t.Fatalf("DeltaPercent = %s", DeltaPercent(90, 100))
	}
	if DeltaPercent(1, 0) != "n/a" {
		t.Fatal("zero reference")
	}
}

// TestPercentileSmallN pins the nearest-rank edge cases the cached-sort
// path must preserve: empty, singleton and pair samples.
func TestPercentileSmallN(t *testing.T) {
	var s Sample
	if got := s.Percentile(50); got != 0 {
		t.Fatalf("n=0: p50 = %v, want 0", got)
	}
	s.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("n=1: p%v = %v, want 7", p, got)
		}
	}
	s.Add(3) // unsorted insertion: cache must re-sort after Add
	if got := s.Percentile(0); got != 3 {
		t.Fatalf("n=2: p0 = %v, want 3", got)
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("n=2: p50 (nearest-rank) = %v, want 3", got)
	}
	if got := s.Percentile(100); got != 7 {
		t.Fatalf("n=2: p100 = %v, want 7", got)
	}
}

// TestPercentileCacheInvalidation verifies that Add after a Percentile
// call invalidates the cached order, and that repeated calls on an
// unchanged sample reuse it (no per-call sort copy).
func TestPercentileCacheInvalidation(t *testing.T) {
	var s Sample
	for _, v := range []sim.Time{50, 10, 40} {
		s.Add(v)
	}
	if got := s.Percentile(100); got != 50 {
		t.Fatalf("p100 = %v, want 50", got)
	}
	if s.sorted == nil {
		t.Fatal("cache not populated by Percentile")
	}
	// A new maximum must be visible to the next call.
	s.Add(99)
	if s.sorted != nil {
		t.Fatal("Add did not invalidate the cache")
	}
	if got := s.Percentile(100); got != 99 {
		t.Fatalf("p100 after Add = %v, want 99", got)
	}
	// Unchanged sample: repeated percentiles allocate nothing.
	allocs := testing.AllocsPerRun(20, func() {
		s.Percentile(50)
		s.Percentile(90)
	})
	if allocs != 0 {
		t.Fatalf("cached percentiles: %v allocs/op, want 0", allocs)
	}
}
