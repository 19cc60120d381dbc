package net

// The sharded cluster engine: a conservative parallel discrete-event
// simulation of a NOW far larger than the machine-accurate Cluster can
// carry. Nodes are dealt to shards, each shard owns a sim.Shard (its
// own clock + event queue), and shards advance concurrently inside
// safe time windows granted by a conservative synchronizer whose
// lookahead is the minimum cross-shard link latency: a message sent at
// time t cannot arrive before t + lookahead, so once the globally
// earliest pending event is known, everything up to that instant plus
// the lookahead can run with no coordination at all.
//
// The load-bearing property is BYTE-DETERMINISM ACROSS LAYOUTS: the
// same (nodes, seed, workload) produces an identical run — identical
// fingerprint and totals — at ANY shard count and ANY worker count.
// Four disciplines buy that invariance, and each is relied on by
// TestShardEquivalence/TestScaleShardParity:
//
//  1. Per-NODE random streams, split from the world seed by node ID
//     (sim.SplitSeed), never per-shard — re-partitioning must not
//     re-deal anyone's dice.
//  2. ALL inter-node messages — even between two nodes of the same
//     shard — are buffered in outboxes indexed by source and
//     destination shard, and a destination shard takes its inbound
//     messages only at the start of the next window, sorted by the
//     canonical key (Arrive, Src, per-source Seq) before it schedules
//     them. Each shard queue thus receives the global canonical order
//     restricted to its own nodes, and delivery interleaving is a pure
//     function of message content.
//  3. The window horizon is computed from the GLOBAL earliest pending
//     event (min over every shard queue and every unscheduled
//     arrival), so the window sequence does not depend on the
//     partition.
//  4. Model events must be node-local: an event on node n may touch
//     only n's state and send messages. Cross-node interaction happens
//     exclusively through Send, which is what makes same-instant
//     events of different nodes commute.
//
// The engine itself is event-level: nodes are modelled by callbacks,
// which is why it is not bound by machine.MaxNodes and can carry
// thousands of nodes. Those callbacks may be flat cost constants (the
// `scale` experiment) — or they may drive full machine.Machine worlds
// hosted on the shards (HostedMachines in shardmachine.go, the
// `scalemachine` experiment), in which case every delivery pays real
// TLB walks, write-buffer drains and DMA-engine FSM transitions. A
// hosted handler advances the shared shard clock while charging CPU
// time, so each machine keeps its own monotonic time floor and the
// shard clock is reset per event (sim.Shard.RunWindow).

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"uldma/internal/obs"
	"uldma/internal/sim"
)

// ShardedConfig sizes a sharded cluster.
type ShardedConfig struct {
	// Nodes is the cluster size. Not bounded by machine.MaxNodes: the
	// sharded engine models nodes at event level.
	Nodes int
	// Shards is the partition width. Nodes are dealt contiguously:
	// shard i owns [i*Nodes/Shards, (i+1)*Nodes/Shards).
	Shards int
	// Link is the interconnect; Link.Latency is the lookahead unless
	// Latency is set.
	Link LinkConfig
	// Seed is the world seed; per-node streams are split from it.
	Seed uint64
	// Latency, when non-nil, gives each ordered node pair its own
	// one-way wire latency (a pure function of (src, dst): topology,
	// never state). Link.Latency is ignored for the wire when set;
	// Link.Bandwidth still serializes every egress port. Construction
	// scans the full pair matrix once to find the global minimum (the
	// synchronizer lookahead — the window formula deliberately stays
	// global so the window sequence, which is part of the fingerprint,
	// remains layout-invariant) and a per-shard-pair minimum matrix
	// used as a causality floor on every sent message.
	Latency func(src, dst int) sim.Time
}

// SMsg is one inter-node message in the sharded engine. It carries no
// payload bytes — the event-level model needs sizes and tags, not
// data — so sending never copies buffers.
type SMsg struct {
	Src, Dst int
	Kind     uint8  // model-defined message class
	Bytes    uint64 // modelled payload size (serialization + accounting)
	Arg      uint64 // model-defined tag (e.g. RPC sequence number)
	Arrive   sim.Time
	// Seq is the per-SOURCE send sequence number. (Arrive, Src, Seq)
	// is the canonical inbound sort key: strictly total (Seq is unique
	// per source) and computed from message content only, so delivery
	// scheduling order cannot depend on shard layout.
	Seq uint64
}

// SDeliver is the model's receive hook, invoked on the destination
// node's shard when a message lands. It must follow the node-local
// rule: touch only Dst's state, and interact with other nodes only
// via Send/At.
type SDeliver func(m SMsg, now sim.Time)

// shardCtr is one shard's private traffic counters. Each shard's cells
// are touched only by that shard's goroutine during windows (delivered,
// bytes on the destination; sent on the source) and read only at
// barriers, so they need no atomics.
type shardCtr struct {
	sent      obs.Counter
	delivered obs.Counter
	bytes     obs.Counter
}

// sdelivery is one scheduled inbound message: a pooled record whose
// fire closure is built once. Records are taken from the destination
// shard's free list when it takes its inbound and returned when they
// land, both on that shard's goroutine, so the pool needs no lock.
type sdelivery struct {
	c     *ShardedCluster
	shard int // destination shard (owner of the pool slot)
	m     SMsg
	fire  func(sim.Time)
}

// ShardedTotals is a cluster-wide roll-up of the per-shard counters,
// taken at a barrier (or after Run returns).
type ShardedTotals struct {
	Sent      uint64   // messages sent
	Delivered uint64   // messages landed
	Bytes     uint64   // payload bytes landed
	Events    uint64   // events fired across all shards
	Windows   uint64   // synchronizer windows executed
	Finish    sim.Time // latest shard clock
}

// ShardedCluster is the sharded engine instance.
type ShardedCluster struct {
	cfg ShardedConfig

	shards    []*sim.Shard
	nodeShard []int32 // node -> owning shard
	first     []int   // shard -> first owned node (len Shards+1)

	// Per-node state. Entries are touched only by the owning shard.
	rng    []sim.Rand // split per-node streams
	egress []sim.Time // per-source NIC serialization point
	eseq   []uint64   // per-source send sequence

	// Per-shard state. out[p][s][d] holds the messages source shard s
	// sent to destination shard d in a window of parity p (windows&1
	// while it ran), and outMin[p][s] the earliest arrival among
	// everything s queued in it. Shard s writes its rows during the
	// window; shard d takes column d at the start of the next window,
	// whose parity differs, so no slice is touched by two goroutines.
	out    [2][][][]SMsg
	outMin [2][]sim.Time
	inbox  [][]SMsg       // per dst shard: its gathered, sorted column
	free   [][]*sdelivery // pooled delivery records, per dst shard
	ctr    []shardCtr

	deliver SDeliver

	// pairMin[i][j] is the minimum wire latency from any node of shard i
	// to any node of shard j (nil when ShardedConfig.Latency is unset —
	// then every pair floors at Link.Latency). latMin/latMax bound the
	// whole matrix; latMin is the synchronizer lookahead.
	pairMin        [][]sim.Time
	latMin, latMax sim.Time

	// horizon is the running (or last) window's inclusive bound: no
	// message sent may arrive before it.
	horizon sim.Time
	windows uint64

	// helperParks and coordParks total the window barrier's parks over
	// every Run (host scheduling only; no result depends on them).
	helperParks, coordParks uint64
}

// NewShardedCluster validates cfg and builds the world. The model must
// then install a receive hook with SetDeliver and prime initial events
// with At before calling Run.
func NewShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("net: sharded cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("net: sharded cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Shards > cfg.Nodes {
		return nil, fmt.Errorf("net: %d shards for %d nodes — a shard must own at least one node", cfg.Shards, cfg.Nodes)
	}
	if cfg.Link.Bandwidth == 0 {
		return nil, fmt.Errorf("net: zero link bandwidth")
	}
	if cfg.Link.Latency <= 0 {
		return nil, fmt.Errorf("net: sharded cluster needs positive link latency (it is the synchronizer lookahead)")
	}
	c := &ShardedCluster{
		cfg:       cfg,
		shards:    make([]*sim.Shard, cfg.Shards),
		nodeShard: make([]int32, cfg.Nodes),
		first:     make([]int, cfg.Shards+1),
		rng:       make([]sim.Rand, cfg.Nodes),
		egress:    make([]sim.Time, cfg.Nodes),
		eseq:      make([]uint64, cfg.Nodes),
		inbox:     make([][]SMsg, cfg.Shards),
		free:      make([][]*sdelivery, cfg.Shards),
		ctr:       make([]shardCtr, cfg.Shards),
	}
	for p := range c.out {
		c.out[p] = make([][][]SMsg, cfg.Shards)
		c.outMin[p] = make([]sim.Time, cfg.Shards)
		for s := range c.out[p] {
			c.out[p][s] = make([][]SMsg, cfg.Shards)
			c.outMin[p][s] = sim.Never
		}
	}
	for s := 0; s < cfg.Shards; s++ {
		// Room for four pending events per owned node.
		c.shards[s] = sim.NewShard(4 * cfg.Nodes / cfg.Shards)
		c.first[s] = s * cfg.Nodes / cfg.Shards
	}
	c.first[cfg.Shards] = cfg.Nodes
	for s := 0; s < cfg.Shards; s++ {
		for n := c.first[s]; n < c.first[s+1]; n++ {
			c.nodeShard[n] = int32(s)
		}
	}
	for n := 0; n < cfg.Nodes; n++ {
		c.rng[n].SetState(sim.SplitSeed(cfg.Seed, uint64(n)))
	}
	c.latMin, c.latMax = cfg.Link.Latency, cfg.Link.Latency
	if cfg.Latency != nil {
		// One full pair scan at construction: the global minimum becomes
		// the lookahead, the per-shard-pair minima become send-time
		// causality floors. The scan is O(nodes²) of a pure function —
		// amortized over the whole run, and the only place the matrix is
		// ever materialized (Send checks just the Shards×Shards minima).
		c.pairMin = make([][]sim.Time, cfg.Shards)
		for i := range c.pairMin {
			row := make([]sim.Time, cfg.Shards)
			for j := range row {
				row[j] = sim.Never
			}
			c.pairMin[i] = row
		}
		c.latMin, c.latMax = sim.Never, 0
		for s := 0; s < cfg.Nodes; s++ {
			row := c.pairMin[c.nodeShard[s]]
			for d := 0; d < cfg.Nodes; d++ {
				if d == s {
					continue
				}
				l := cfg.Latency(s, d)
				if l <= 0 {
					return nil, fmt.Errorf("net: latency matrix gives %v for pair (%d,%d); every wire latency must be positive", l, s, d)
				}
				if ds := c.nodeShard[d]; l < row[ds] {
					row[ds] = l
				}
				if l < c.latMin {
					c.latMin = l
				}
				if l > c.latMax {
					c.latMax = l
				}
			}
		}
		if c.latMin == sim.Never {
			// A single-node world has no pairs; fall back to the link.
			c.latMin, c.latMax = cfg.Link.Latency, cfg.Link.Latency
		}
	}
	return c, nil
}

// Lookahead returns the synchronizer lookahead: the minimum one-way
// wire latency, below which no message can arrive after it is sent.
func (c *ShardedCluster) Lookahead() sim.Time { return c.latMin }

// LatencyBounds returns the minimum and maximum one-way wire latency
// over all ordered node pairs (equal to Link.Latency twice when no
// latency matrix is configured).
func (c *ShardedCluster) LatencyBounds() (min, max sim.Time) { return c.latMin, c.latMax }

// Rand returns node n's private random stream. Split per node from the
// world seed, so it is identical under every shard layout. Must only
// be used from node n's own events (or before Run).
func (c *ShardedCluster) Rand(n int) *sim.Rand { return &c.rng[n] }

// NodeEnv returns the clock and event queue of the shard owning node n
// — what machine.NewHosted / NewFromSnapshotHosted mount a shard-hosted
// machine on. Anything scheduled on the queue must follow the
// node-local rule: touch only node n's state.
func (c *ShardedCluster) NodeEnv(n int) (*sim.Clock, *sim.EventQueue) {
	s := c.shards[c.nodeShard[n]]
	return s.Clock, s.Events
}

// SetDeliver installs the model's receive hook.
func (c *ShardedCluster) SetDeliver(fn SDeliver) { c.deliver = fn }

// At schedules a node-local model event for node n at time at, on n's
// shard queue. Call only from n's own events (or from the coordinator
// before Run / between windows): the fn will run on n's shard and must
// follow the node-local rule.
func (c *ShardedCluster) At(n int, at sim.Time, fn func(now sim.Time)) {
	c.shards[c.nodeShard[n]].Events.ScheduleFunc(at, fn)
}

// Send transmits an event-level message from src to dst. The source
// NIC serializes: a message occupies src's egress port for its
// serialization time, so back-to-back sends queue behind each other
// (the per-SOURCE analogue of the machine fabric's wire model). The
// arrival lands no earlier than departure + link latency, which is
// what the synchronizer's lookahead guarantee rests on.
//
// Send must be called from src's own events (or before Run). The
// message is buffered in the executing shard's outbox and dst's shard
// schedules it at the start of the next window — even when dst shares
// src's shard, so that delivery interleaving is identical under every
// layout.
func (c *ShardedCluster) Send(src, dst int, kind uint8, bytes, arg uint64, now sim.Time) {
	dep := now
	if c.egress[src] > dep {
		dep = c.egress[src]
	}
	dep += sim.Time(bytes * uint64(sim.Second) / c.cfg.Link.Bandwidth)
	c.egress[src] = dep
	c.eseq[src]++
	lat := c.cfg.Link.Latency
	if c.cfg.Latency != nil {
		lat = c.cfg.Latency(src, dst)
	}
	arrive := dep + lat
	if arrive < c.horizon {
		// The lookahead contract was violated: a message would land
		// inside a window that already ran. Always a model bug (a Send
		// from another node's event, or a latency floor beaten).
		panic(fmt.Sprintf("net: sharded causality violation: arrival %v before horizon %v (src %d dst %d)",
			arrive, c.horizon, src, dst))
	}
	ss, ds := c.nodeShard[src], c.nodeShard[dst]
	if c.pairMin != nil && arrive-now < c.pairMin[ss][ds] {
		// A message beat the latency matrix's own floor for its shard
		// pair: the Latency function returned inconsistent values (it
		// must be pure).
		panic(fmt.Sprintf("net: sharded latency-floor violation: wire time %v under shard-pair floor %v (src %d dst %d)",
			arrive-now, c.pairMin[ss][ds], src, dst))
	}
	c.ctr[ss].sent.Inc()
	p := c.windows & 1
	c.out[p][ss][ds] = append(c.out[p][ss][ds], SMsg{
		Src: src, Dst: dst, Kind: kind, Bytes: bytes, Arg: arg,
		Arrive: arrive, Seq: c.eseq[src],
	})
	c.outMin[p][ss] = min(c.outMin[p][ss], arrive)
}

// getDelivery takes a pooled record for destination shard ds. Called
// only on ds's goroutine, from inbound.
func (c *ShardedCluster) getDelivery(ds int) *sdelivery {
	pool := c.free[ds]
	if n := len(pool); n > 0 {
		d := pool[n-1]
		c.free[ds] = pool[:n-1]
		return d
	}
	d := &sdelivery{c: c, shard: ds}
	d.fire = func(now sim.Time) { d.c.land(d, now) }
	return d
}

// land fires on the destination shard when a message arrives:
// counters, return the record, then the model's receive hook.
func (c *ShardedCluster) land(d *sdelivery, now sim.Time) {
	m := d.m
	ctr := &c.ctr[d.shard]
	ctr.delivered.Inc()
	ctr.bytes.Add(m.Bytes)
	c.free[d.shard] = append(c.free[d.shard], d)
	c.deliver(m, now)
}

// inbound starts shard d's window: it resets d's earliest-arrival
// mark for the parity the window writes, gathers column d of the
// previous parity in source-shard order, sorts it by the canonical
// content key and schedules each message on d's queue. Runs on the
// goroutine that runs d's window.
func (c *ShardedCluster) inbound(d int) {
	prev, cur := (c.windows-1)&1, c.windows&1
	c.outMin[cur][d] = sim.Never
	in := c.inbox[d][:0]
	for s := range c.out[prev] {
		in = append(in, c.out[prev][s][d]...)
		c.out[prev][s][d] = c.out[prev][s][d][:0]
	}
	c.inbox[d] = in
	slices.SortFunc(in, func(a, b SMsg) int {
		if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	ev := c.shards[d].Events
	for i := range in {
		dl := c.getDelivery(d)
		dl.m = in[i]
		ev.ScheduleFunc(dl.m.Arrive, dl.fire)
	}
}

// Run drives the synchronizer until every shard is idle and every
// outbox is empty, on up to workers host goroutines per window. There
// is one window loop for every worker count: the calling goroutine is
// the coordinator and runs shards idx ≡ 0 (mod w) itself, and w − 1
// helpers run the shards idx ≡ h (mod w), where w is workers capped at
// the shard count and GOMAXPROCS (w = 1 runs every shard on the caller,
// starting no goroutine). Which goroutine runs a shard cannot change a
// result: shards touch only their own state inside a window. Every
// helper has exited when Run returns. maxWindows bounds runaway models.
func (c *ShardedCluster) Run(workers int, maxWindows uint64) error {
	if c.deliver == nil {
		return fmt.Errorf("net: sharded cluster has no deliver hook (SetDeliver)")
	}
	w := min(workers, len(c.shards), runtime.GOMAXPROCS(0))
	if w < 1 {
		w = 1
	}
	b := newBarrier(w - 1)
	for h := 1; h < w; h++ {
		go c.helper(b, h, w)
	}
	defer func() {
		b.stop()
		c.helperParks += b.helperParks
		c.coordParks += b.coordParks
	}()

	for {
		// The bound depends only on the union of pending events and
		// unscheduled arrivals, not on how nodes were dealt to shards,
		// which is what makes the window sequence (and the whole run)
		// invariant under shard count.
		p := c.windows & 1
		earliest := sim.Never
		for s, sh := range c.shards {
			earliest = min(earliest, sh.Events.NextAt(), c.outMin[p][s])
		}
		if earliest == sim.Never {
			return nil
		}
		if c.windows >= maxWindows {
			return fmt.Errorf("net: sharded window budget (%d) exhausted", maxWindows)
		}
		c.horizon = earliest + c.latMin
		// The window's Sends write the other parity than the one its
		// shards take their inbound from, which is parity p.
		c.windows++
		b.release()
		c.runShare(0, w)
		b.join()
	}
}

// runShare runs the current window on every shard idx ≡ first (mod w),
// each after it takes its inbound messages.
func (c *ShardedCluster) runShare(first, w int) {
	for idx := first; idx < len(c.shards); idx += w {
		c.inbound(idx)
		c.shards[idx].RunWindow(c.horizon)
	}
}

// helper is one of Run's helper goroutines: it runs its share of every
// window the coordinator releases until the barrier stops.
func (c *ShardedCluster) helper(b *barrier, h, w int) {
	for gen := uint64(0); ; {
		gen = b.await(gen)
		if b.stopped {
			b.done()
			return
		}
		c.runShare(h, w)
		b.done()
	}
}

// A waiter of the window barrier polls its signal spinPolls times
// between runtime.Gosched calls, for spinBudget such rounds, before it
// parks on the barrier's condition variable. A window of the scale
// worlds costs tens of microseconds, so a waiter usually sees its
// signal while still spinning and the futex round trip of a park and
// wake is paid only across long windows. Yielding on every poll instead
// sends each poll through the scheduler's global run-queue lock, which
// costs the waiter more than the window it waits for.
const (
	spinPolls  = 64
	spinBudget = 256
)

// barrier is the window barrier between Run's coordinator and its
// helpers. The coordinator publishes each window by bumping gen (the
// horizon is written before, so a helper that sees the new generation
// sees the horizon), and helpers report completion by counting left
// down to zero (their shard writes happen before, so the coordinator's
// horizon scan and the next window's inbound see them). Each side spins on its signal and then parks on a
// condition variable; the other side takes the lock and wakes it only
// when a parked count says someone is asleep. A helper cannot miss a
// generation: the next release waits for its done.
type barrier struct {
	gen  atomic.Uint64 // window generation, bumped by release
	left atomic.Int32  // helpers still running the released window

	mu          sync.Mutex
	wake        sync.Cond    // helpers wait here for the next generation
	idle        sync.Cond    // the coordinator waits here for left == 0
	helpersDown atomic.Int32 // helpers parked on wake
	coordDown   atomic.Bool  // the coordinator is parked on idle

	// helperParks and coordParks count parks on wake and idle, guarded
	// by mu.
	helperParks, coordParks uint64

	helpers int
	stopped bool // written before the final release, read after await
}

func newBarrier(helpers int) *barrier {
	b := &barrier{helpers: helpers}
	b.wake.L, b.idle.L = &b.mu, &b.mu
	return b
}

// release starts a window on every helper.
func (b *barrier) release() {
	b.left.Store(int32(b.helpers))
	b.gen.Add(1)
	if b.helpersDown.Load() > 0 {
		b.mu.Lock()
		b.wake.Broadcast()
		b.mu.Unlock()
	}
}

// join waits until every helper has finished the released window.
func (b *barrier) join() {
	if spin(func() bool { return b.left.Load() == 0 }) {
		return
	}
	b.mu.Lock()
	b.coordParks++
	b.coordDown.Store(true)
	for b.left.Load() != 0 {
		b.idle.Wait()
	}
	b.coordDown.Store(false)
	b.mu.Unlock()
}

// stop finishes any window still running (Run may be unwinding from a
// panic on the coordinator's share), then releases the helpers one last
// time with stopped set and waits for each to report its exit.
func (b *barrier) stop() {
	b.join()
	b.stopped = true
	b.release()
	b.join()
}

// await returns the first window generation after seen, polling and
// then parking.
func (b *barrier) await(seen uint64) uint64 {
	if spin(func() bool { return b.gen.Load() != seen }) {
		return b.gen.Load()
	}
	b.mu.Lock()
	b.helperParks++
	b.helpersDown.Add(1)
	for b.gen.Load() == seen {
		b.wake.Wait()
	}
	b.helpersDown.Add(-1)
	g := b.gen.Load()
	b.mu.Unlock()
	return g
}

// spin polls ready for the spin budget and reports whether it came
// true before the budget ran out.
func spin(ready func() bool) bool {
	for i := 1; i <= spinBudget*spinPolls; i++ {
		if ready() {
			return true
		}
		if i%spinPolls == 0 {
			runtime.Gosched()
		}
	}
	return false
}

// done reports one helper's window (or its exit) complete.
func (b *barrier) done() {
	if b.left.Add(-1) == 0 && b.coordDown.Load() {
		b.mu.Lock()
		b.idle.Signal()
		b.mu.Unlock()
	}
}

// Totals rolls up the per-shard counters. Call at a barrier (between
// Run calls); every component of the result is layout-invariant.
func (c *ShardedCluster) Totals() ShardedTotals {
	var t ShardedTotals
	for i := range c.ctr {
		t.Sent += c.ctr[i].sent.Value()
		t.Delivered += c.ctr[i].delivered.Value()
		t.Bytes += c.ctr[i].bytes.Value()
	}
	for _, s := range c.shards {
		t.Events += s.Fired
		// Reached, not Clock.Now(): a hosted machine handler leaves the
		// shard clock wherever its last CPU charge ended, which need not
		// be the run's maximum. Reached is a per-event property of the
		// node that fired, so its max is layout-invariant.
		if s.Reached > t.Finish {
			t.Finish = s.Reached
		}
	}
	t.Windows = c.windows
	return t
}

// fpMix folds one word into a running fingerprint (SplitMix64-style
// finalizer over an accumulating state).
func fpMix(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Fingerprint digests the cluster's layout-INVARIANT state: per-node
// stream positions, egress points and send sequences (in node order),
// summed counters, total events fired, windows and finish time, then a
// zero where a per-shard trace count once went, so fingerprints stay
// what they were. Deliberately excluded: per-queue scheduling
// sequence numbers and per-shard clocks, which depend on the partition
// without affecting any observable result. Equal fingerprints across
// shard×worker layouts are the engine's determinism pin.
func (c *ShardedCluster) Fingerprint() uint64 {
	h := uint64(len(c.rng))
	for n := range c.rng {
		h = fpMix(h, c.rng[n].State())
		h = fpMix(h, uint64(c.egress[n]))
		h = fpMix(h, c.eseq[n])
	}
	t := c.Totals()
	h = fpMix(h, t.Sent)
	h = fpMix(h, t.Delivered)
	h = fpMix(h, t.Bytes)
	h = fpMix(h, t.Events)
	h = fpMix(h, t.Windows)
	h = fpMix(h, uint64(t.Finish))
	h = fpMix(h, 0)
	return h
}
