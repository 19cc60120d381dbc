// Package sim provides the deterministic simulation substrate that every
// other component of the machine model is built on: a picosecond-resolution
// clock, an ordered event queue, and a seedable pseudo-random source.
//
// All timing results in this repository are expressed in simulated time
// produced by this package, never in host wall-clock time, so experiment
// output is bit-for-bit reproducible across runs and hosts.
package sim

import "fmt"

// Time is a point in simulated time, measured in integer picoseconds from
// the start of the simulation. Picosecond resolution lets us represent a
// 150 MHz CPU cycle (6666.67 ns/1000) and a 12.5 MHz bus cycle exactly
// enough that rounding error never accumulates past one cycle over the
// longest experiments in the suite.
type Time int64

// Common durations, following the style of the time package.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Never is a sentinel meaning "no scheduled time". It sorts after every
// representable simulation instant.
const Never Time = 1<<63 - 1

// Nanoseconds returns t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats t with an adaptive unit, e.g. "18.6µs" or "640ns".
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return trimZeros(fmt.Sprintf("%.3f", t.Nanoseconds())) + "ns"
	case t < Millisecond:
		return trimZeros(fmt.Sprintf("%.3f", t.Microseconds())) + "µs"
	case t < Second:
		return trimZeros(fmt.Sprintf("%.3f", float64(t)/float64(Millisecond))) + "ms"
	default:
		return trimZeros(fmt.Sprintf("%.3f", float64(t)/float64(Second))) + "s"
	}
}

func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Hz is a clock frequency. The model uses it to convert cycle counts of a
// particular clock domain (CPU core, I/O bus, network link) into Time.
type Hz uint64

// Standard frequencies used by the machine presets.
const (
	MHz Hz = 1_000_000
	GHz Hz = 1_000_000_000
)

// Period returns the duration of one cycle at frequency f, rounded to the
// nearest picosecond. f must be non-zero.
func (f Hz) Period() Time {
	if f == 0 {
		panic("sim: zero frequency has no period")
	}
	return Time((uint64(Second) + uint64(f)/2) / uint64(f))
}

// Cycles converts a cycle count in this clock domain into a duration.
func (f Hz) Cycles(n int64) Time { return Time(n) * f.Period() }

// CyclesIn reports how many whole cycles of this clock domain fit in d.
func (f Hz) CyclesIn(d Time) int64 {
	p := f.Period()
	if p == 0 {
		return 0
	}
	return int64(d / p)
}

// String formats the frequency, e.g. "12.5MHz".
func (f Hz) String() string {
	switch {
	case f >= GHz:
		return trimZeros(fmt.Sprintf("%.3f", float64(f)/float64(GHz))) + "GHz"
	case f >= MHz:
		return trimZeros(fmt.Sprintf("%.3f", float64(f)/float64(MHz))) + "MHz"
	default:
		return fmt.Sprintf("%dHz", uint64(f))
	}
}

// Clock is the single source of simulated time for one machine (or one
// cluster — machines connected by links share a clock so that link events
// and CPU events interleave consistently).
//
// Components advance the clock by the cost of whatever they just modelled
// (an instruction issue, a bus transaction, a syscall trap). The zero
// value is a clock at time zero, ready to use.
type Clock struct {
	now Time
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves simulated time forward by d. Negative advances panic:
// simulated time is monotonic by construction, and a negative cost always
// indicates a modelling bug upstream.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future; moving
// backwards is ignored (events may be processed at a timestamp the clock
// has already passed).
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds (or advances) the clock to exactly t. It exists solely
// for world snapshot/restore (machine.Snapshot / machine.Restore):
// ordinary simulation code must only move time forward through Advance
// and AdvanceTo, which preserve monotonicity.
func (c *Clock) Reset(t Time) { c.now = t }
