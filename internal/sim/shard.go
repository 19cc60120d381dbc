package sim

// Shard is one independently-advancing slice of a partitioned simulation:
// its own clock and its own event queue. A sharded world assigns each
// node to exactly one shard; inside a synchronizer-granted safe window
// the shard fires its events with no coordination, which is what lets a
// cluster simulation use every host core while each shard stays
// single-goroutine and bit-for-bit deterministic.
//
// A shard has no identity of its own: nothing about a run may depend
// on which shard fired an event, so the sharded world orders every
// cross-shard message by its content (arrival, source, per-source
// sequence), never by shard.
//
// Shard deliberately does NOT own an RNG: random streams must be
// per-NODE (split from the world seed by node index), never per-shard,
// or re-partitioning the same world across a different shard count
// would re-deal the streams and break shard-count invariance.
type Shard struct {
	Clock  *Clock
	Events *EventQueue

	// Fired counts events fired by RunWindow over the shard's lifetime.
	// The scale experiment sums it across shards for the host
	// events/sec throughput metric.
	Fired uint64

	// Reached is the high-water mark of the shard clock across every
	// event fired so far. It is NOT the clock after the last event: a
	// shard-hosted machine model may advance the shared clock past the
	// event's timestamp while charging CPU/bus time, and a later cheap
	// event can leave the clock below that peak. Worlds that report a
	// finish time must take max(Reached) over shards — the per-event
	// peak is a property of the node that fired, so the maximum is
	// invariant under how nodes are dealt to shards.
	Reached Time
}

// NewShard returns a shard with a fresh clock at time zero and an event
// queue pre-sized for hint pending events.
func NewShard(hint int) *Shard {
	return &Shard{Clock: NewClock(), Events: NewEventQueueSize(hint)}
}

// RunWindow fires, in timestamp order, every pending event with
// At <= to, advancing the shard clock to each event as it fires, and
// returns how many events fired. Events may schedule further events;
// those are honoured within the same window if they fall inside it.
//
// The caller (the window synchronizer) guarantees that no event another
// shard could still send can land at or before to — that is exactly the
// conservative-lookahead contract — so firing everything inside the
// window is safe without inspecting any other shard.
//
// The clock is Reset (not AdvanceTo'd) to each event's timestamp: a
// handler hosting a machine model advances the shared clock while it
// charges CPU and bus time, so the next event's timestamp may be
// earlier than where the previous handler left the clock. That is fine
// — each NODE's view of time stays monotonic (hosted models keep a
// per-node floor) — but it means the shard clock is a scratch register
// between events, not a monotonic counter. Reached keeps the monotonic
// summary.
func (s *Shard) RunWindow(to Time) uint64 {
	var n uint64
	q := s.Events
	for {
		at := q.NextAt()
		if at > to {
			break
		}
		s.Clock.Reset(at)
		q.Step()
		if now := s.Clock.Now(); now > s.Reached {
			s.Reached = now
		}
		n++
	}
	s.Fired += n
	return n
}

// SplitSeed derives a child seed for stream i from one base seed with a
// SplitMix64-style finalizer. Same contract as par.SplitSeed but keyed
// by uint64 so worlds can split per-node streams directly by node ID.
// The derivation is pure, so re-partitioning nodes across shards never
// re-deals anyone's stream.
func SplitSeed(base, stream uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
