package net

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"uldma/internal/sim"
)

// gossip is a toy sharded workload for the determinism tests: every
// node periodically fires a message with a random hop budget at a
// random peer; receivers decrement the budget and forward. It touches
// every invariance-critical path — per-node RNG draws on both send and
// receive, egress serialization, same-instant cross-node traffic —
// while staying strictly node-local.
type gossip struct {
	c     *ShardedCluster
	nodes int
	got   []uint64 // per node: messages received (node-local)
}

func newGossip(nodes, shards int, seed uint64) (*gossip, *ShardedCluster) {
	c, err := NewShardedCluster(ShardedConfig{
		Nodes: nodes, Shards: shards, Link: Gigabit(), Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	g := &gossip{c: c, nodes: nodes, got: make([]uint64, nodes)}
	c.SetDeliver(g.deliver)
	return g, c
}

// prime schedules every node's initial burst. Several nodes fire at
// the SAME instant on purpose: same-time events of different nodes are
// exactly where a layout-dependence bug would show.
func (g *gossip) prime() {
	for n := 0; n < g.nodes; n++ {
		n := n
		at := sim.Time(1+n%3) * sim.Microsecond
		g.c.At(n, at, func(now sim.Time) { g.burst(n, now) })
	}
}

func (g *gossip) burst(n int, now sim.Time) {
	rng := g.c.Rand(n)
	for i := 0; i < 3; i++ {
		dst := rng.Intn(g.nodes - 1)
		if dst >= n {
			dst++
		}
		hops := rng.Uint64() % 4
		g.c.Send(n, dst, 1, 16+rng.Uint64()%64, hops, now)
	}
}

func (g *gossip) deliver(m SMsg, now sim.Time) {
	g.got[m.Dst]++
	if m.Arg == 0 {
		return
	}
	rng := g.c.Rand(m.Dst)
	dst := rng.Intn(g.nodes - 1)
	if dst >= m.Dst {
		dst++
	}
	g.c.Send(m.Dst, dst, 1, m.Bytes, m.Arg-1, now)
}

// run executes the gossip to quiescence and returns the world's
// observable outcome: fingerprint, totals and per-node receive counts.
func (g *gossip) run(t *testing.T, workers int) (uint64, ShardedTotals, []uint64) {
	t.Helper()
	if err := g.c.Run(workers, 1<<20); err != nil {
		t.Fatalf("run: %v", err)
	}
	return g.c.Fingerprint(), g.c.Totals(), g.got
}

// TestShardEquivalence is the tentpole pin: the sharded run is
// byte-identical to the single-queue run (shards=1) for every shard
// and worker count — same fingerprint, same totals, same per-node
// receive counts. Workers 2 and 3 give the
// coordinator a share beside one or two helpers over 4 and 8 shards.
func TestShardEquivalence(t *testing.T) {
	const nodes, seed = 24, 99
	ref, _ := newGossip(nodes, 1, seed)
	ref.prime()
	refFP, refTotals, refGot := ref.run(t, 1)
	if refTotals.Delivered == 0 || refTotals.Windows == 0 {
		t.Fatalf("degenerate reference run: %+v", refTotals)
	}

	// Run caps its goroutines at GOMAXPROCS; lift the cap so every
	// coordinator/helper split in the grid runs as written on any host,
	// the uneven ones (3 workers over 4 or 8 shards) included.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, shards := range []int{2, 4, 8} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			g, _ := newGossip(nodes, shards, seed)
			g.prime()
			fp, totals, got := g.run(t, workers)
			if fp != refFP {
				t.Errorf("%s: fingerprint %016x, reference %016x", name, fp, refFP)
			}
			if totals != refTotals {
				t.Errorf("%s: totals %+v, reference %+v", name, totals, refTotals)
			}
			if !reflect.DeepEqual(got, refGot) {
				t.Errorf("%s: per-node receive counts diverge from reference", name)
			}
		}
	}
}

func TestShardedConfigValidation(t *testing.T) {
	base := ShardedConfig{Nodes: 8, Shards: 2, Link: Gigabit(), Seed: 1}
	if _, err := NewShardedCluster(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ShardedConfig)
	}{
		{"zero nodes", func(c *ShardedConfig) { c.Nodes = 0 }},
		{"zero shards", func(c *ShardedConfig) { c.Shards = 0 }},
		{"more shards than nodes", func(c *ShardedConfig) { c.Shards = 9 }},
		{"zero bandwidth", func(c *ShardedConfig) { c.Link.Bandwidth = 0 }},
		{"zero latency", func(c *ShardedConfig) { c.Link.Latency = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewShardedCluster(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// mustPanic runs f and fails unless it panics with a message that
// contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestShardedSendPanics pins Send's two model-bug checks. Each world
// runs on one worker, so a panic inside a window unwinds through Run to
// the test's recover.
func TestShardedSendPanics(t *testing.T) {
	// A Send stamped before the last window's horizon would land in a
	// window that already ran.
	c, err := NewShardedCluster(ShardedConfig{Nodes: 4, Shards: 2, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeliver(func(SMsg, sim.Time) {})
	c.At(0, sim.Millisecond, func(now sim.Time) { c.Send(0, 3, 1, 16, 0, now) })
	if err := c.Run(1, 100); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "sharded causality violation", func() { c.Send(1, 2, 1, 16, 0, 0) })

	// A Latency func that returns less than it did at construction beats
	// the shard pair's floor: across the racks the floor is 20µs, and a
	// 5µs wire still arrives after the 3µs horizon of the first window.
	rack, shrunk := rackLatency(4), false
	c, err = NewShardedCluster(ShardedConfig{
		Nodes: 4, Shards: 2, Link: Gigabit(), Seed: 1,
		Latency: func(src, dst int) sim.Time {
			if shrunk {
				return min(rack(src, dst), 5*sim.Microsecond)
			}
			return rack(src, dst)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeliver(func(SMsg, sim.Time) {})
	c.At(0, sim.Microsecond, func(now sim.Time) {
		shrunk = true
		c.Send(0, 3, 1, 0, 0, now)
	})
	mustPanic(t, "latency-floor violation", func() { c.Run(1, 100) })
}

// The partition must cover every node exactly once, contiguously.
func TestShardPartition(t *testing.T) {
	c, err := NewShardedCluster(ShardedConfig{Nodes: 10, Shards: 3, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for n := 0; n < 10; n++ {
		s := int(c.nodeShard[n])
		if s < prev || s > prev+1 || s >= 3 {
			t.Fatalf("node %d on shard %d after shard %d — not a contiguous partition", n, s, prev)
		}
		prev = s
	}
	if int(c.nodeShard[0]) != 0 || int(c.nodeShard[9]) != 2 {
		t.Fatalf("partition does not span the shard range")
	}
}

// Run without a deliver hook is a model wiring bug and must error.
func TestShardedRunNeedsDeliver(t *testing.T) {
	c, err := NewShardedCluster(ShardedConfig{Nodes: 4, Shards: 2, Link: Gigabit(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1, 100); err == nil {
		t.Fatal("Run without SetDeliver succeeded")
	}
}

// TestShardRunBarrier pins the window barrier's lifecycle: Run leaves
// no helper goroutine behind, after a normal return and after the
// maxWindows error return, and a world whose events stay on one shard
// for longer than the spin budget — so that a helper, and in a second
// world the coordinator, parks and must be woken — still reproduces
// the 1-worker fingerprint.
func TestShardRunBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	base := runtime.NumGoroutine()
	settled := func(phase string) {
		t.Helper()
		// A helper has reported its exit when Run returns; give it the
		// moment it needs to leave the scheduler's count.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", phase, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// peak samples the goroutine count from inside node 0's events,
	// which shows the helpers were running at all.
	peak := 0
	world := func(slow int) *gossip {
		g, c := newGossip(8, 2, 3)
		g.prime()
		c.At(0, 0, func(sim.Time) { peak = max(peak, runtime.NumGoroutine()) })
		if slow >= 0 {
			// Three long events on node slow's shard, in three windows.
			for i := 1; i <= 3; i++ {
				c.At(slow, sim.Time(i)*sim.Millisecond, func(sim.Time) { time.Sleep(10 * time.Millisecond) })
			}
		}
		return g
	}

	g := world(-1)
	if err := g.c.Run(2, 1<<20); err != nil {
		t.Fatalf("run: %v", err)
	}
	if peak <= base {
		t.Fatalf("goroutine count inside the run %d, baseline %d: no helper ran", peak, base)
	}
	settled("after a complete Run")

	g = world(-1)
	if err := g.c.Run(2, 3); err == nil {
		t.Fatal("Run within a 3-window budget succeeded")
	}
	settled("after the window-budget error")

	for _, tc := range []struct {
		name  string
		slow  int // node whose events run long: 0 is on the coordinator's shard, 7 on the helper's
		parks func(c *ShardedCluster) uint64
	}{
		{"helper parks", 0, func(c *ShardedCluster) uint64 { return c.helperParks }},
		{"coordinator parks", 7, func(c *ShardedCluster) uint64 { return c.coordParks }},
	} {
		ref := world(tc.slow)
		if err := ref.c.Run(1, 1<<20); err != nil {
			t.Fatalf("%s: 1-worker run: %v", tc.name, err)
		}
		g := world(tc.slow)
		if err := g.c.Run(2, 1<<20); err != nil {
			t.Fatalf("%s: 2-worker run: %v", tc.name, err)
		}
		if n := tc.parks(g.c); n == 0 {
			t.Errorf("%s: no park recorded — the long events did not outlast the spin budget", tc.name)
		}
		if fp, want := g.c.Fingerprint(), ref.c.Fingerprint(); fp != want {
			t.Errorf("%s: fingerprint %016x, 1-worker run %016x", tc.name, fp, want)
		}
		settled(tc.name)
	}
}
