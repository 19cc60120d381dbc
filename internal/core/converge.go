package userdma

// Steady-state convergence detection for the measurement loops. The
// paper's methodology repeats an identical initiation many times (only
// the in-page offset cycles, with period 64); once the machine reaches
// steady state every iteration charges exactly the same costs, and
// simulating the remainder is wasted work. The harness therefore
// fingerprints the whole machine after each iteration
// (machine.Fingerprint: every counter, the clock, the TLB and engine
// state hashes) and compares successive fingerprint *deltas*. After
// ConvergeK consecutive identical deltas — more than a full offset
// cycle, so any period-64 effect would have broken the streak — every
// future iteration is provably identical, and the loop fast-forwards:
// it synthesizes the remaining samples and advances the clock
// analytically. Results are byte-identical to the full run; only
// wall-clock time changes.
//
// The same switch gates a second skip, in Handle.Wait's completion
// poll. While a transfer is queued, walking or parked on a page-in,
// each poll (one uncached status load, then Spin(200)) repeats the
// last one exactly until an event fires or a bus-mastering window
// opens or closes. pollSkip confirms that with one registry-bracketed
// poll and charges the k polls that fit before that horizon in one
// step: every registry cell, the clock, the CPU TLB's tick and LRU
// stamps, and the runner's slot accounting end where the full loop
// leaves them. Wait only tests the status for 0 or StatusFailure, and
// no skipped load can see either: a transfer's status changes only at
// an event. The skip refuses (polls for real) when a tracer is
// attached, the write buffer holds a store, the CPU pumps no event
// queue (shard-hosted machines), the guest runs outside Run or under
// a policy other than RoundRobin, another process is live, or the poll
// changes state outside the registry (a syscall poll counts a trap, a
// TLB fill moves the TLB's version).
//
// Every real poll costs O(1) in the size of the world: the held-state
// check compares counters (the TLB's mutation version, the engine's
// decode version, the event queue's sequence) rather than hashing
// tables, and the registry is one pointer per cell. The end of every
// real poll is the start of the next, so the poll that ends one
// stretch arms the next and a stretch spends one bracketed poll before
// it skips. No test of equal clock advances is needed: the CPU and the
// bus charge cycle counts that do not depend on the clock's phase,
// contention depends on time only through DMA windows, and the horizon
// stops at their edges, so the held-state check and the registry
// bracket carry the whole proof.

import (
	"sync/atomic"

	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

// ConvergeK is how many consecutive identical machine-state deltas the
// detector demands before fast-forwarding. It exceeds the measurement
// loops' 64-iteration address-offset cycle, so a streak this long rules
// out any offset-periodic variation.
const ConvergeK = 70

// fastForward gates the convergence fast-forward and the poll skip
// globally. On by default; the equivalence tests switch it off
// (SetFastForward, export_test.go) to obtain full-run references.
var fastForward = true

// ffEngagements counts fast-forward activations across all measurement
// cells (cells run on parallel worker goroutines, hence atomic). It
// exists so the equivalence regression test can assert the detector
// actually fired — a silently-never-converging detector would leave
// results correct but the optimization dead.
var ffEngagements atomic.Int64

// FastForwardEngagements returns how many measurement loops have
// fast-forwarded since process start.
func FastForwardEngagements() int64 { return ffEngagements.Load() }

// convergence tracks fingerprint deltas across measurement iterations.
// The zero value is ready to use.
type convergence struct {
	prev      machine.Fingerprint
	delta     machine.Fingerprint
	havePrev  bool
	haveDelta bool
	streak    int
}

// observe feeds the fingerprint taken at the end of one iteration and
// reports whether the machine has converged: ConvergeK consecutive
// iterations produced the identical state delta.
func (c *convergence) observe(f machine.Fingerprint) bool {
	if !c.havePrev {
		c.prev, c.havePrev = f, true
		return false
	}
	d := f.Delta(&c.prev)
	c.prev = f
	if c.haveDelta && d == c.delta {
		c.streak++
	} else {
		c.delta, c.haveDelta = d, true
		c.streak = 1
	}
	return c.streak >= ConvergeK
}

// clockDelta returns the converged per-iteration clock advance (word 0
// of the delta vector).
func (c *convergence) clockDelta() sim.Time {
	return sim.Time(c.delta[0])
}

// pollSkipCells bounds the registry a poll skip can scale; a machine
// with more metrics runs every poll for real.
const pollSkipCells = 96

// pollSkips counts the quiet stretches Handle.Wait has charged in one
// step since process start, so the equivalence tests can assert the
// skip engaged (ffEngagements counts the measurement loops' skips).
// realPolls counts the polls Wait ran for real and skippedPolls the
// ones it charged without running.
var pollSkips, realPolls, skippedPolls atomic.Int64

// pollSkip is Handle.Wait's quiet-stretch detector, kept on Wait's
// stack; newPollSkip starts it at the clock on Wait's entry. The end of
// every real poll arms it: it records the held state (pollHeld), the
// horizon — the next event or bus-window edge — and the registry, as
// the start of the next poll, B. If B leaves the held state as it found
// it and ends before the horizon, every poll until the horizon starts
// from the same state and repeats B exactly, so skipBy charges k of
// them at once. polls counts Wait's real polls for realPolls.
type pollSkip struct {
	armed         bool
	last, horizon sim.Time // clock at the last poll's end (B's start when armed), and B's horizon
	start         pollHeld // held state at B's start
	tick, instrs  uint64   // TLB tick and guest instruction count at B's start
	polls         int64
	reg           [pollSkipCells]uint64
}

func newPollSkip(m *machine.Machine) pollSkip { return pollSkip{last: m.Clock.Now()} }

// done publishes the Wait's real-poll count.
func (s *pollSkip) done() { realPolls.Add(s.polls) }

// pollHeld is the state outside the registry that a poll must leave
// unchanged to repeat: the CPU TLB's entries and the engine's decode
// state (by their mutation versions: equal versions imply identical
// state, and a version that moves where the state did not only makes
// the skip refuse), the event queue and the kernel's trap count. The
// rest moves only in events, traps and transfer starts (which schedule
// events): the engine's channel clocks, the IOMMU and the pager.
type pollHeld struct {
	tlb, decode, seq, traps uint64
	next                    sim.Time
}

func heldOf(m *machine.Machine) pollHeld {
	return pollHeld{tlb: m.CPU.TLB().Version(), decode: m.Engine.DecodeVersion(), seq: m.Events.SnapshotSeq(),
		traps: m.Kernel.Counters().Syscalls.Value(), next: m.Events.NextAt()}
}

// after runs at the end of each poll; left is how many more polls Wait
// allows. It returns how many polls it charged.
func (s *pollSkip) after(m *machine.Machine, c *proc.Context, left int) int {
	now := m.Clock.Now()
	dt := now - s.last
	s.last = now
	armed := s.armed
	s.armed = false
	if !fastForward || m.Tracer != nil || m.WB.Pending() != 0 ||
		m.CPU.Events() == nil || m.Obs.Len() > pollSkipCells {
		return 0
	}
	room, ok := c.SkipRoom()
	if !ok {
		return 0
	}
	held := heldOf(m)
	if armed && held == s.start && s.horizon > now {
		if k := s.skipBy(m, c, left, room, dt); k > 0 {
			return k
		}
	}
	// This poll's end is the next poll's start: arm on it when the
	// horizon leaves room to skip a few polls of this one's length.
	s.horizon = min(held.next, m.Bus.NextWindowEdge(now))
	if s.horizon-now > 3*dt {
		s.armed, s.start = true, held
		s.tick, s.instrs = m.CPU.TLB().Tick(), c.Process().Instructions()
		m.Obs.Read(s.reg[:])
	}
	return 0
}

// skipBy charges k more copies of poll B, which took dt: k ends short
// of the horizon, of Wait's last poll, and of the slot budget and
// quantum (room).
func (s *pollSkip) skipBy(m *machine.Machine, c *proc.Context, left int, room uint64, dt sim.Time) int {
	now := m.Clock.Now()
	ds := c.Process().Instructions() - s.instrs
	if left < 2 || ds == 0 || dt == 0 {
		return 0
	}
	k := min(uint64(s.horizon-now-1)/uint64(dt), uint64(left-1), room/ds)
	if k == 0 {
		return 0
	}
	m.Obs.Extrapolate(s.reg[:], k)
	m.CPU.TLB().Skip(s.tick, k*(m.CPU.TLB().Tick()-s.tick))
	c.SkipSlots(k*ds, sim.Time(k)*dt)
	m.Clock.Advance(sim.Time(k) * dt)
	s.last = m.Clock.Now()
	pollSkips.Add(1)
	skippedPolls.Add(int64(k))
	return int(k)
}
