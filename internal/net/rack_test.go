package net

import (
	"fmt"
	"reflect"
	"testing"

	"uldma/internal/sim"
)

// rackLatency is a two-rack topology: cheap wires inside a rack, a
// 10x more expensive hop across. The global lookahead is pinned to the
// 2µs intra-rack floor, and every sent message is checked against
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
