package proc

import "uldma/internal/sim"

// Policy picks the process to receive the next instruction slot.
// runnable is never empty; current may be nil (first slot) or Done.
// The runnable slice is the scheduler's reusable scratch buffer:
// implementations must not retain it across calls.
type Policy interface {
	Next(runnable []*Process, current *Process) *Process
}

// RoundRobin grants each process Quantum consecutive slots, then moves
// to the next — a classic preemptive time-slice scheduler scaled down
// to instruction granularity.
type RoundRobin struct {
	Quantum int
	used    int
}

// NewRoundRobin returns a round-robin policy; quantum <= 0 means one
// slot per turn.
func NewRoundRobin(quantum int) *RoundRobin {
	if quantum <= 0 {
		quantum = 1
	}
	return &RoundRobin{Quantum: quantum}
}

// holds reports whether r's running guest is p and p could keep the
// CPU under rr: it is live, not blocked, and has not overrun its
// quantum.
func (rr *RoundRobin) holds(r *Runner, p *Process) bool {
	return r.current == p && p.state != Done && p.blockedUntil <= r.cpu.Clock().Now() && rr.used <= rr.Quantum
}

// keepRoom returns how many more slots Next would grant the running
// guest p in a row under Run, with every scheduling decision as it is
// now: none unless holds, else the slots left in p's quantum and in
// Run's slot budget. A positive room is exactly the case in which Next
// returns current and counts one more used slot; Runner.regrant takes
// that case in place and Context.SkipRoom bounds a bulk charge by it.
func (rr *RoundRobin) keepRoom(r *Runner, p *Process) uint64 {
	if !rr.holds(r, p) {
		return 0
	}
	return min(r.maxSlots-r.granted, uint64(rr.Quantum-rr.used))
}

// Next implements Policy.
func (rr *RoundRobin) Next(runnable []*Process, current *Process) *Process {
	if current != nil && current.State() != Done && rr.used < rr.Quantum {
		for _, p := range runnable {
			if p == current {
				rr.used++
				return current
			}
		}
	}
	rr.used = 1
	// Advance past current in spawn order.
	if current != nil {
		for i, p := range runnable {
			if p.PID() > current.PID() {
				return runnable[i]
			}
		}
	}
	return runnable[0]
}

// Random preempts uniformly at random every slot, driven by a seeded
// generator: the adversarial-interleaving property tests replay a seed
// to reproduce any failure.
type Random struct {
	rng *sim.Rand
}

// NewRandom returns a seeded random policy.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.NewRand(seed)} }

// Next implements Policy.
func (r *Random) Next(runnable []*Process, _ *Process) *Process {
	return runnable[r.rng.Intn(len(runnable))]
}

// Scripted replays an explicit schedule: entry i names the process that
// receives slot i. It is how the Figure 5/6/8 interleavings are forced.
// When the script is exhausted (or names a finished/unknown PID), it
// falls back to the first runnable process so that every process can
// run to completion.
type Scripted struct {
	Order []PID
	pos   int
}

// NewScripted builds a scripted policy from a PID sequence.
func NewScripted(order ...PID) *Scripted { return &Scripted{Order: order} }

// Next implements Policy.
func (s *Scripted) Next(runnable []*Process, _ *Process) *Process {
	for s.pos < len(s.Order) {
		want := s.Order[s.pos]
		s.pos++
		for _, p := range runnable {
			if p.PID() == want {
				return p
			}
		}
		// Named process finished or absent: consume the entry and
		// continue with the rest of the script.
	}
	return runnable[0]
}
