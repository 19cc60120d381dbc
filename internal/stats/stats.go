// Package stats provides the small measurement and reporting helpers
// the experiment harnesses share: sample accumulation with summary
// statistics, and fixed-width table rendering for paper-vs-measured
// reports.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"uldma/internal/sim"
)

// Sample accumulates simulated-time observations.
type Sample struct {
	values []sim.Time
	// sorted caches the ascending order of values across repeated
	// Percentile calls (renderers ask for several percentiles of the
	// same finished sample — min/p50/p90/max per table row — and
	// re-sorting a copy per call dominated Sample's cost). Add
	// invalidates it.
	sorted []sim.Time
}

// Add records one observation and invalidates the cached sort order.
func (s *Sample) Add(v sim.Time) {
	s.values = append(s.values, v)
	s.sorted = nil
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() sim.Time {
	if len(s.values) == 0 {
		return 0
	}
	var sum sim.Time
	for _, v := range s.values {
		sum += v
	}
	return sum / sim.Time(len(s.values))
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() sim.Time {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() sim.Time {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank. The sorted order is computed once and cached until the
// next Add, so asking one sample for several percentiles sorts once.
func (s *Sample) Percentile(p float64) sim.Time {
	if s.sorted == nil {
		s.sorted = append([]sim.Time(nil), s.values...)
		slices.Sort(s.sorted)
	}
	return Percentile(s.sorted, p)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of an
// ascending slice by nearest-rank, as Sample.Percentile does (0 when
// empty).
func Percentile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Histogram renders the sample's distribution as an ASCII bar chart
// with n equal-width buckets between min and max. Empty samples render
// as a note.
func (s *Sample) Histogram(n int) string {
	if len(s.values) == 0 {
		return "(no samples)\n"
	}
	if n < 1 {
		n = 10
	}
	lo, hi := s.Min(), s.Max()
	if lo == hi {
		return fmt.Sprintf("%v x%d\n", lo, len(s.values))
	}
	counts := make([]int, n)
	width := (hi - lo) / sim.Time(n)
	if width == 0 {
		width = 1
	}
	maxCount := 0
	for _, v := range s.values {
		b := int((v - lo) / width)
		if b >= n {
			b = n - 1
		}
		counts[b]++
		if counts[b] > maxCount {
			maxCount = counts[b]
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&b, "%10v..%-10v %5d %s\n",
			lo+sim.Time(i)*width, lo+sim.Time(i+1)*width, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// Table renders fixed-width ASCII tables in the style the tools print.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table { return &Table{headers: headers} }

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len([]rune(h))
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len([]rune(c)); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Ratio formats a/b as "N.Nx" (or "inf" for zero b) — used in speedup
// columns.
func Ratio(a, b sim.Time) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// DeltaPercent formats the relative difference of measured vs reference
// as a signed percentage.
func DeltaPercent(measured, reference sim.Time) string {
	if reference == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(measured)-float64(reference))/float64(reference))
}
