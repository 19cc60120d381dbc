package net

// Cluster snapshot/restore, a test hook: the multi-node analogue of
// machine.Snapshot, which only TestClusterSnapshotRestoreFidelity
// drives. A quiescent cluster (every process Done on every node, the
// shared event queue drained) is captured as the per-node machine
// snapshots plus the fabric's own state — FIFO floors, traffic
// counters, and the attached fault plane's opaque state (RNG position,
// per-link counters) — so a post-restore run replays byte-identically,
// faults and all.
//
// The engine-side wrinkle: dma.Engine.Snapshot refuses while a remote
// handler is attached (in-flight link traffic lives outside one
// machine). The cluster snapshot settles first — so nothing is in
// flight — then detaches each node's port around the per-machine
// snapshot and reattaches it.

import (
	"fmt"

	"uldma/internal/machine"
	"uldma/internal/sim"
)

// ClusterSnapshot is a complete quiescent-cluster state.
type ClusterSnapshot struct {
	nodes    []*machine.Snapshot
	lastInto map[int]sim.Time
	ctr      FabricCounters
	plane    any // fault-plane state; nil when no plane was attached
}

// Snapshot settles the cluster and captures it. It fails if any node
// cannot be quiesced (a process still live — see machine.Snapshot).
func (c *Cluster) Snapshot() (*ClusterSnapshot, error) {
	c.Settle()
	s := &ClusterSnapshot{ctr: c.Fabric.ctr}
	if len(c.Fabric.lastInto) > 0 {
		s.lastInto = make(map[int]sim.Time, len(c.Fabric.lastInto))
		for k, v := range c.Fabric.lastInto {
			s.lastInto[k] = v
		}
	}
	if p := c.Fabric.plane; p != nil {
		s.plane = p.SnapshotState()
	}
	for i, m := range c.Nodes {
		m.Engine.SetRemoteHandler(nil)
		ms, err := m.Snapshot()
		m.Engine.SetRemoteHandler(&nodePort{fabric: c.Fabric, src: i})
		if err != nil {
			return nil, fmt.Errorf("net: snapshot node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, ms)
	}
	return s, nil
}

// Restore rewinds the cluster in place to a snapshot taken from it:
// every node is machine-restored (post-snapshot processes discarded),
// and the fabric's FIFO floors, counters and fault-plane state are
// rewound with them. The snapshot must come from this cluster (machine
// restore matches process records by identity).
func (c *Cluster) Restore(s *ClusterSnapshot) error {
	if len(s.nodes) != len(c.Nodes) {
		return fmt.Errorf("net: restore: snapshot has %d nodes, cluster has %d", len(s.nodes), len(c.Nodes))
	}
	c.Settle()
	for i, m := range c.Nodes {
		if err := m.Restore(s.nodes[i]); err != nil {
			return fmt.Errorf("net: restore node %d: %w", i, err)
		}
	}
	c.Fabric.ctr = s.ctr
	c.Fabric.lastInto = nil
	if len(s.lastInto) > 0 {
		c.Fabric.lastInto = make(map[int]sim.Time, len(s.lastInto))
		for k, v := range s.lastInto {
			c.Fabric.lastInto[k] = v
		}
	}
	if p := c.Fabric.plane; p != nil && s.plane != nil {
		if err := p.RestoreState(s.plane); err != nil {
			return fmt.Errorf("net: restore fault plane: %w", err)
		}
	}
	return nil
}

// MustNewCluster is NewCluster that panics on error, for the tests'
// fixed, valid configurations.
func MustNewCluster(n int, cfg machine.Config, link LinkConfig) *Cluster {
	c, err := NewCluster(n, cfg, link)
	if err != nil {
		panic(err)
	}
	return c
}
