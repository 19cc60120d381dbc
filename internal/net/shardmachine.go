package net

// HostedMachines: the bridge between the sharded engine and the
// Table-1-accurate machine model. Each cluster node is a full
// machine.Machine hydrated in shard-hosted mode (machine.NewHosted /
// NewFromSnapshotHosted): the machine runs on its owning shard's clock
// and event queue — it never owns either — so its CPU charges, bus
// transactions and DMA-engine completions all ride the window
// synchronizer like any other event.
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
	nodes []*machine.Machine
	busy  []sim.Time // per-node monotonic CPU high-water mark
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
	return &HostedMachines{nodes: nodes, busy: make([]sim.Time, len(nodes))}, nil
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
