package obs

// The structured trace spine: a ring-buffered, sim-clocked event
// stream with spans. It subsumes the old bus-transaction recorder and
// adds cross-layer events the paper's protection and atomicity
// arguments live on: which process's accesses reached the engine in
// which order, when the engine mastered the bus, when the kernel was
// entered and left, when the fabric delivered — all on one timeline,
// exportable to Perfetto.
//
// Cost model: components hold a nil *Trace until tracing is enabled
// (machine.EnableTrace / net.Cluster.EnableTrace). Every emission site
// is `if tr != nil { tr.Emit(...) }`; disabled tracing is a pointer
// compare. Enabled tracing appends into a preallocated-by-growth ring
// and never formats strings on the hot path (names are static string
// constants; arguments ride as raw words and are rendered at export
// time).

import (
	"fmt"

	"uldma/internal/sim"
)

// Category classifies an event by the layer that emitted it. Perfetto
// export maps categories to named tracks.
type Category uint8

const (
	// CatBus is an uncached bus transaction (load/store/rmw).
	CatBus Category = iota
	// CatSyscall is a kernel entry/exit span.
	CatSyscall
	// CatDMA is a DMA bus-mastering window span.
	CatDMA
	// CatSched is a scheduler event (context switch).
	CatSched
	// CatLink is a fabric delivery span (send -> land).
	CatLink
	// CatFault is a fault-plane verdict (drop/dup/reorder).
	CatFault
	// CatMsg is a reliable-channel protocol event (timeout,
	// retransmission, recredit).
	CatMsg

	numCategories
)

// String names the category as it appears in exports.
func (c Category) String() string {
	switch c {
	case CatBus:
		return "bus"
	case CatSyscall:
		return "syscall"
	case CatDMA:
		return "dma"
	case CatSched:
		return "sched"
	case CatLink:
		return "link"
	case CatFault:
		return "fault"
	case CatMsg:
		return "msg"
	}
	return fmt.Sprintf("cat%d", uint8(c))
}

// Event is one trace record. Instants have Dur == 0; spans carry their
// full extent (both bounds are known at emission for every span the
// model produces: syscalls emit at exit, DMA windows and link
// deliveries know their end when scheduled).
type Event struct {
	At   sim.Time
	Dur  sim.Time
	Cat  Category
	Name string // static string constant — never formatted on the hot path
	Node int32  // cluster node id (0 on a standalone machine)
	PID  int32  // guest process id, -1 when not process-attributed
	A0   uint64 // category-specific arguments (addr/size/val, pids, seqs)
	A1   uint64
	A2   uint64
}

// Policy selects what a full Trace does with further events.
type Policy uint8

const (
	// Ring overwrites the oldest events — flight-recorder semantics,
	// the default for always-on tracing.
	Ring Policy = iota
	// DropNewest stops storing once full and counts the overflow —
	// for dmabench -trace and tests that pin "the first N events".
	DropNewest
)

// DefaultTraceCap is the event capacity used when a caller passes
// max <= 0.
const DefaultTraceCap = 4096

// Trace is the event stream. It is single-writer (one simulated world,
// one goroutine — the simulator's concurrency contract) and bounded.
type Trace struct {
	max     int
	policy  Policy
	events  []Event
	start   int    // ring read position (0 until the ring wraps)
	emitted uint64 // total events offered — linear, fingerprinted
	dropped uint64 // events not stored (DropNewest) or overwritten (Ring)
}

// NewTrace creates a trace holding at most max events (max <= 0 means
// DefaultTraceCap).
func NewTrace(max int, policy Policy) *Trace {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &Trace{max: max, policy: policy}
}

// Emit records one event. Steady state is allocation-free: the event
// slice grows to max once, then the ring reuses slots (Ring) or the
// overflow is counted (DropNewest).
func (t *Trace) Emit(e Event) {
	t.emitted++
	if len(t.events) < t.max {
		t.events = append(t.events, e)
		return
	}
	if t.policy == DropNewest {
		t.dropped++
		return
	}
	t.events[t.start] = e
	t.start++
	if t.start == t.max {
		t.start = 0
	}
	t.dropped++
}

// Instant records a zero-duration event.
func (t *Trace) Instant(at sim.Time, cat Category, name string, node, pid int32, a0, a1, a2 uint64) {
	t.Emit(Event{At: at, Cat: cat, Name: name, Node: node, PID: pid, A0: a0, A1: a1, A2: a2})
}

// Span records an event covering [at, at+dur).
func (t *Trace) Span(at, dur sim.Time, cat Category, name string, node, pid int32, a0, a1, a2 uint64) {
	t.Emit(Event{At: at, Dur: dur, Cat: cat, Name: name, Node: node, PID: pid, A0: a0, A1: a1, A2: a2})
}

// Emitted reports the total number of events offered to the trace —
// a linear counter suitable for fingerprinting.
func (t *Trace) Emitted() uint64 { return t.emitted }

// Dropped reports how many events were not retained (dropped under
// DropNewest, overwritten under Ring).
func (t *Trace) Dropped() uint64 { return t.dropped }

// Events returns the retained events in emission order (oldest first).
// The returned slice is a copy; the trace keeps recording.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// TraceState is a Trace's complete mutable state, captured for world
// snapshots. Counters and retained events rewind with the world like
// every other metric (the rewind-with-the-world rule).
type TraceState struct {
	max     int
	policy  Policy
	events  []Event
	start   int
	emitted uint64
	dropped uint64
}

// Cap returns the capacity of the trace the state was captured from —
// what NewFromSnapshot needs to re-enact tracing on a clone.
func (s *TraceState) Cap() int { return s.max }

// Policy returns the captured trace's overflow policy.
func (s *TraceState) Policy() Policy { return s.policy }

// State captures the trace's complete mutable state.
func (t *Trace) State() *TraceState {
	events := make([]Event, len(t.events))
	copy(events, t.events)
	return &TraceState{
		max: t.max, policy: t.policy, events: events,
		start: t.start, emitted: t.emitted, dropped: t.dropped,
	}
}

// RestoreState rewinds the trace to a captured state. The state must
// come from a trace of the same capacity and policy.
func (t *Trace) RestoreState(s *TraceState) error {
	if s.max != t.max || s.policy != t.policy {
		return fmt.Errorf("obs: restore: state from a cap-%d/policy-%d trace, trace is cap-%d/policy-%d",
			s.max, s.policy, t.max, t.policy)
	}
	t.events = append(t.events[:0], s.events...)
	t.start = s.start
	t.emitted = s.emitted
	t.dropped = s.dropped
	return nil
}
