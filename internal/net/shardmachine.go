package net

// HostedMachines: the bridge between the sharded engine and the
// Table-1-accurate machine model. Each cluster node is a full
// machine.Machine hydrated in shard-hosted mode (machine.NewHosted /
// NewFromSnapshotHosted): the machine runs on its owning shard's clock
// and event queue — it never owns either — so its CPU charges, bus
// transactions and DMA-engine completions all ride the window
// synchronizer like any other event.
//
// The bundle implements ShardState, which is what makes the cluster's
// quiescent Snapshot/Restore cover the whole fleet: at a barrier every
// machine is captured with SnapshotHosted (which detaches the engine's
// fabric port for the duration — no link traffic is in flight at a
// barrier) and rewound with RestoreHosted. A model's own bookkeeping
// chains through Inner.
//
// Time discipline: shard clocks are shared scratch (sim.Shard.RunWindow
// resets the clock per event), but each MACHINE's substrates — bus
// busy-until, write-buffer slots — must only ever see monotonic time.
// Hosted models therefore floor the clock to the machine's own
// high-water mark before driving it and record the new mark after
// (Floor/Leave). The mark is per-node model state, so it is invariant
// under how nodes are dealt to shards.

import (
	"fmt"

	"uldma/internal/machine"
	"uldma/internal/sim"
)

// HostedMachines is a per-node fleet of shard-hosted machines mounted
// on a sharded cluster.
type HostedMachines struct {
	c     *ShardedCluster
	nodes []*machine.Machine
	busy  []sim.Time // per-node monotonic CPU high-water mark
	// Inner optionally chains a model's own snapshot hook behind the
	// fleet's (set before the first Snapshot).
	Inner ShardState
}

// hostedState is the ShardState payload: one hosted snapshot per node
// plus the time floors and the chained model payload.
type hostedState struct {
	machines []*machine.Snapshot
	busy     []sim.Time
	inner    any
}

// NewHostedMachines mounts one shard-hosted machine per cluster node.
// Every machine must have been built hosted (NewHosted or
// NewFromSnapshotHosted) on its owning shard's clock and queue.
func NewHostedMachines(c *ShardedCluster, nodes []*machine.Machine) (*HostedMachines, error) {
	if len(nodes) != c.cfg.Nodes {
		return nil, fmt.Errorf("net: %d hosted machines for %d nodes", len(nodes), c.cfg.Nodes)
	}
	for n, m := range nodes {
		if m == nil || !m.Hosted() {
			return nil, fmt.Errorf("net: node %d machine is not shard-hosted (use machine.NewHosted)", n)
		}
	}
	h := &HostedMachines{c: c, nodes: nodes, busy: make([]sim.Time, len(nodes))}
	c.SetStateHook(h)
	return h, nil
}

// Machine returns node n's hosted machine.
func (h *HostedMachines) Machine(n int) *machine.Machine { return h.nodes[n] }

// Floor prepares node n's machine to execute at event time at: the
// shard clock is reset to max(at, the node's own high-water mark), so
// the machine's substrates never observe time moving backwards even
// when an earlier event on the same shard left the clock further ahead
// for a DIFFERENT node. Returns the effective start time — the model's
// queueing delay is (returned - at).
func (h *HostedMachines) Floor(n int, at sim.Time) sim.Time {
	start := at
	if h.busy[n] > start {
		start = h.busy[n]
	}
	h.nodes[n].Clock.Reset(start)
	return start
}

// Leave records where node n's machine left the shared clock after
// executing, advancing its high-water mark. Call at the end of every
// event that drove the machine.
func (h *HostedMachines) Leave(n int) sim.Time {
	now := h.nodes[n].Clock.Now()
	if now > h.busy[n] {
		h.busy[n] = now
	}
	return now
}

// Busy returns node n's current high-water mark without touching the
// clock (the earliest time a new event could start executing there).
func (h *HostedMachines) Busy(n int) sim.Time { return h.busy[n] }

// Bump raises node n's high-water mark to at (no-op when at is not
// later). Models use it to serialize the node behind engine-side
// completions — e.g. the last accepted transfer's End — without driving
// the clock there.
func (h *HostedMachines) Bump(n int, at sim.Time) {
	if at > h.busy[n] {
		h.busy[n] = at
	}
}

// SnapshotState implements ShardState: a hosted snapshot of every
// machine, in node order. The cluster has already verified quiescence
// (no pending events, no unflushed outboxes) before calling, so a
// failure here means a machine broke its own invariants — that is a
// model bug, and it panics like the engine's causality checks do.
func (h *HostedMachines) SnapshotState() any {
	st := &hostedState{
		machines: make([]*machine.Snapshot, len(h.nodes)),
		busy:     append([]sim.Time(nil), h.busy...),
	}
	for n, m := range h.nodes {
		s, err := m.SnapshotHosted()
		if err != nil {
			panic(fmt.Sprintf("net: hosted snapshot of node %d at a quiescent barrier: %v", n, err))
		}
		st.machines[n] = s
	}
	if h.Inner != nil {
		st.inner = h.Inner.SnapshotState()
	}
	return st
}

// RestoreState implements ShardState.
func (h *HostedMachines) RestoreState(state any) error {
	st, ok := state.(*hostedState)
	if !ok {
		return fmt.Errorf("net: hosted machines: foreign snapshot payload %T", state)
	}
	if len(st.machines) != len(h.nodes) {
		return fmt.Errorf("net: hosted machines: snapshot of %d nodes onto %d", len(st.machines), len(h.nodes))
	}
	for n, m := range h.nodes {
		if err := m.RestoreHosted(st.machines[n]); err != nil {
			return fmt.Errorf("net: hosted machines: node %d: %w", n, err)
		}
	}
	copy(h.busy, st.busy)
	if h.Inner != nil && st.inner != nil {
		return h.Inner.RestoreState(st.inner)
	}
	return nil
}
