package obs

// The live half of the observability plane: streaming views a harness
// can read WHILE a world runs, without perturbing it.
//
// The post-hoc API (Registry.Snapshot, Trace.Events) allocates a fresh
// copy per call, which is fine once per experiment cell but wrong for
// a steered experiment loop that wants to watch a running measurement.
// This file adds the pay-for-what-you-use forms:
//
//   - Registry.SnapshotAt fills a caller-owned TimedSnapshot, reusing
//     its Values capacity — zero allocations once warm
//     (TestSnapshotAtZeroAllocs).
//   - Registry.Watch resolves one metric to a read handle whose Value
//     is a plain cell read — zero allocations, ever
//     (TestWatchZeroAllocs).
//   - Trace.NewReader attaches a streaming cursor that drains the ring
//     incrementally: every Poll delivers a consistent, whole-event
//     prefix of the not-yet-seen retained events in emission order,
//     counting anything the ring overwrote underneath it as skipped
//     (TestTraceReaderWraparound).
//
// None of these touch the simulated clock or the event queue: reads go
// through the same registered cells Snapshot uses, so a live feed
// costs 0 simulated picoseconds by construction — the machine-level
// pin is TestLiveFeedZeroDelta in internal/core, which runs the same
// measurement with and without a per-transfer live feed and demands a
// byte-identical result, fingerprint included.
//
// Concurrency: like everything else on a world, these are single-
// goroutine views (the simulator's one-goroutine-per-world contract).
// A Reader is a live cursor into its Trace, not a thread-safe queue.

import "uldma/internal/sim"

// TimedSnapshot is a registry snapshot stamped with the simulated
// instant it was taken. The Values slice is owned by the caller and
// reused across SnapshotAt calls.
type TimedSnapshot struct {
	At     sim.Time
	Values []MetricValue
}

// Get reads one metric from the snapshot by name (linear scan — the
// snapshot is a rendered view, not an index).
func (s *TimedSnapshot) Get(name string) (uint64, bool) {
	for _, mv := range s.Values {
		if mv.Name == name {
			return mv.Value, true
		}
	}
	return 0, false
}

// SnapshotAt reads every metric in registration order into dst,
// stamping it with now (the caller holds the clock; the registry never
// touches simulated time). dst.Values is resized in place, so a warm
// TimedSnapshot makes SnapshotAt allocation-free — the form a live
// feed polls mid-run.
func (r *Registry) SnapshotAt(now sim.Time, dst *TimedSnapshot) {
	dst.At = now
	if cap(dst.Values) < len(r.names) {
		dst.Values = make([]MetricValue, len(r.names))
	}
	dst.Values = dst.Values[:len(r.names)]
	for i, name := range r.names {
		dst.Values[i] = MetricValue{Name: name, Value: r.cells[i].read()}
	}
}

// Watch is a live read handle on one registered metric: Value reads
// the registered cell directly — no map lookup, no allocation. The
// handle stays valid for the life of the world and tracks rewound
// state exactly like Get (reads always reflect live component state).
type Watch struct {
	name string
	cell cell
}

// Name returns the watched metric's registered name.
func (w Watch) Name() string { return w.name }

// Value reads the metric.
func (w Watch) Value() uint64 { return w.cell.read() }

// Watch resolves name to a read handle, paying the map lookup once so
// per-sample reads don't.
func (r *Registry) Watch(name string) (Watch, bool) {
	i, ok := r.index[name]
	if !ok {
		return Watch{}, false
	}
	return Watch{name: r.names[i], cell: r.cells[i]}, true
}

// Reader is a streaming cursor over a Trace. It tracks the sequence
// number (the trace's linear Emitted count) of the next event it has
// not yet delivered; Poll drains everything retained from there on.
// If the ring overwrote events the reader had not consumed yet, those
// are counted as skipped and the cursor jumps to the oldest retained
// event — the delivered stream is always a subsequence of the emission
// order made of whole events, never a torn or reordered one.
type Reader struct {
	t       *Trace
	next    uint64 // sequence of the next event to deliver
	skipped uint64 // events overwritten before the reader got to them
}

// NewReader attaches a streaming cursor positioned at the trace's
// current end: it will deliver events emitted from now on. Use
// NewReaderFrom(0) to also drain what the ring currently retains.
func (t *Trace) NewReader() *Reader { return &Reader{t: t, next: t.emitted} }

// NewReaderFrom attaches a cursor at an absolute sequence number
// (0 = the first event ever emitted; anything the ring has already
// overwritten counts as skipped on the first Poll).
func (t *Trace) NewReaderFrom(seq uint64) *Reader { return &Reader{t: t, next: seq} }

// Skipped reports how many events the ring overwrote before the reader
// consumed them, across all Polls.
func (rd *Reader) Skipped() uint64 { return rd.skipped }

// Poll appends every retained, not-yet-delivered event to buf in
// emission order and returns the extended slice plus the number of
// events skipped by this poll (overwritten under the cursor since the
// previous one). Events are copied out whole, so a reader never sees a
// torn record even while the writer keeps wrapping the ring between
// polls.
//
// If the trace was rewound underneath the reader (RestoreState/Reset —
// the rewind-with-the-world rule), the cursor clamps to the rewound
// stream's end: the re-run's events are delivered as they are
// re-emitted, without double-counting the abandoned timeline.
func (rd *Reader) Poll(buf []Event) ([]Event, uint64) {
	t := rd.t
	if rd.next > t.emitted {
		rd.next = t.emitted
	}
	stored := uint64(len(t.events))
	// Oldest retained sequence: under Ring the last `stored` emissions
	// survive; under DropNewest the FIRST `stored` do (overflow is
	// counted, not stored) — so the retained window is [0, stored).
	oldest := uint64(0)
	if t.policy == Ring {
		oldest = t.emitted - stored
	}
	newest := oldest + stored
	var skippedNow uint64
	if rd.next < oldest {
		skippedNow = oldest - rd.next
		rd.skipped += skippedNow
		rd.next = oldest
	}
	for seq := rd.next; seq < newest; seq++ {
		idx := int(seq - oldest)
		if t.policy == Ring {
			idx = (t.start + idx) % len(t.events)
		}
		buf = append(buf, t.events[idx])
	}
	rd.next = newest
	return buf, skippedNow
}
