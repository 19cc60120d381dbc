package net

import (
	"fmt"
	"reflect"
	"testing"

	"uldma/internal/sim"
)

// rackLatency is a two-rack topology: cheap wires inside a rack, a
// 10x more expensive hop across. The global lookahead is pinned to the
// 2µs intra-rack floor, and every flushed message is checked against
// its shard pair's floor.
func rackLatency(nodes int) func(src, dst int) sim.Time {
	half := nodes / 2
	return func(src, dst int) sim.Time {
		if (src < half) == (dst < half) {
			return 2 * sim.Microsecond
		}
		return 20 * sim.Microsecond
	}
}

func newRackGossip(nodes, shards int, seed uint64) (*gossip, *ShardedCluster) {
	c, err := NewShardedCluster(ShardedConfig{
		Nodes: nodes, Shards: shards, Link: Gigabit(), Seed: seed,
		Latency: rackLatency(nodes),
	})
	if err != nil {
		panic(err)
	}
	g := &gossip{c: c, nodes: nodes, got: make([]uint64, nodes)}
	c.SetDeliver(g.deliver)
	c.SetStateHook(g)
	return g, c
}

// TestRackShardParity is the determinism pin on a non-uniform latency
// matrix: fingerprint, per-node receive counts and the full totals,
// window count included, must be byte-identical at every shard and
// worker count.
func TestRackShardParity(t *testing.T) {
	const nodes, seed = 24, 7
	ref, _ := newRackGossip(nodes, 1, seed)
	ref.prime()
	refFP, refTotals, refGot := ref.run(t, 1)
	if refTotals.Delivered == 0 {
		t.Fatalf("degenerate reference run: %+v", refTotals)
	}

	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			g, _ := newRackGossip(nodes, shards, seed)
			g.prime()
			fp, totals, got := g.run(t, workers)
			if fp != refFP {
				t.Errorf("%s: fingerprint %016x, reference %016x", name, fp, refFP)
			}
			if !reflect.DeepEqual(got, refGot) {
				t.Errorf("%s: per-node receive counts diverged", name)
			}
			if totals != refTotals {
				t.Errorf("%s: totals %+v, reference %+v", name, totals, refTotals)
			}
		}
	}
}

// TestRackSnapshotRestore rewinds a rack-topology world mid-life and
// requires a byte-identical rerun.
func TestRackSnapshotRestore(t *testing.T) {
	const nodes, seed, shards = 24, 7, 4
	g, c := newRackGossip(nodes, shards, seed)
	g.prime()
	if err := c.Run(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Second life from the captured instant.
	second := func() {
		for n := 0; n < nodes; n++ {
			n := n
			c.At(n, c.shards[c.nodeShard[n]].Clock.Now()+sim.Millisecond, func(now sim.Time) { g.burst(n, now) })
		}
		if err := c.Run(1, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	second()
	fp1, totals1 := c.Fingerprint(), c.Totals()
	got1 := append([]uint64(nil), g.got...)

	if err := c.Restore(sn); err != nil {
		t.Fatal(err)
	}
	second()
	if fp2 := c.Fingerprint(); fp2 != fp1 {
		t.Errorf("rewound rerun fingerprint %016x != %016x", fp2, fp1)
	}
	if totals2 := c.Totals(); totals2 != totals1 {
		t.Errorf("rewound rerun totals %+v != %+v", totals2, totals1)
	}
	if !reflect.DeepEqual(g.got, got1) {
		t.Error("rewound rerun receive counts diverged")
	}
}
