package fault

import (
	"testing"

	"uldma/internal/net"
	"uldma/internal/sim"
)

// lossy returns a plan that exercises every random draw.
func lossy() Plan {
	return Plan{Default: LinkFaults{
		Drop:      0.3,
		Dup:       0.2,
		Reorder:   0.25,
		ReorderBy: 10 * sim.Microsecond,
		Jitter:    2 * sim.Microsecond,
	}}
}

// judgeStream runs n judgements across a few links and times.
func judgeStream(in *Injector, n int) []net.Verdict {
	out := make([]net.Verdict, 0, n)
	for i := 0; i < n; i++ {
		src, dst := i%3, (i+1)%3
		out = append(out, in.Judge(src, dst, sim.Time(i)*sim.Microsecond))
	}
	return out
}

// TestJudgeDeterminism: the same (plan, seed) pair replays the exact
// verdict stream; a different seed diverges.
func TestJudgeDeterminism(t *testing.T) {
	a := judgeStream(New(lossy(), 42), 1000)
	b := judgeStream(New(lossy(), 42), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs for identical (plan, seed): %+v vs %+v", i, a[i], b[i])
		}
	}
	c := judgeStream(New(lossy(), 43), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical fault schedules")
	}
}

// TestZeroPlanIsInert: a zero plan short-circuits to the identity
// verdict without touching the RNG or the per-link counters, so an
// attached zero-fault plane is state-identical to no plane at all.
func TestZeroPlanIsInert(t *testing.T) {
	in := New(Plan{}, 7)
	if !in.plan.Zero() {
		t.Fatal("empty plan not recognised as zero")
	}
	before := in.rng.State()
	for i := 0; i < 100; i++ {
		v := in.Judge(0, 1, sim.Time(i))
		if v.N != 1 || v.Copies[0] != (net.Arrival{}) {
			t.Fatalf("zero plan verdict = %+v, want identity", v)
		}
	}
	if in.rng.State() != before {
		t.Fatal("zero plan consumed random draws")
	}
	if len(in.sent) != 0 {
		t.Fatal("zero plan advanced per-link counters")
	}
	// A plan with only zero-valued link entries is zero too.
	p := Plan{Links: map[Link]LinkFaults{{0, 1}: {}}}
	if !p.Zero() {
		t.Fatal("all-zero link map not recognised as zero")
	}
	if (Plan{Scripts: []Script{{0, 1, 3}}}).Zero() {
		t.Fatal("scripted plan claimed to be zero")
	}
}

// TestSnapshotRestoreReplays: restoring mid-stream replays the exact
// post-snapshot verdicts — the plane's whole state is its RNG position
// and per-link counters.
func TestSnapshotRestoreReplays(t *testing.T) {
	in := New(lossy(), 99)
	judgeStream(in, 137) // advance to an arbitrary point
	snap := in.SnapshotState()
	first := judgeStream(in, 500)
	if err := in.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	second := judgeStream(in, 500)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replayed verdict %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
	if err := in.RestoreState(42); err == nil {
		t.Fatal("restore accepted a foreign state value")
	}
}

// TestDownWindow: messages sent inside an outage window are dropped
// without consuming a random draw; outside it they pass.
func TestDownWindow(t *testing.T) {
	p := Plan{Links: map[Link]LinkFaults{
		{0, 1}: {Down: []Window{{From: 10 * sim.Microsecond, Until: 20 * sim.Microsecond}}},
	}}
	in := New(p, 1)
	before := in.rng.State()
	if v := in.Judge(0, 1, 15*sim.Microsecond); v.N != 0 {
		t.Fatalf("in-window send survived: %+v", v)
	}
	if v := in.Judge(0, 1, 20*sim.Microsecond); v.N != 1 {
		t.Fatalf("at-Until send dropped (window is half-open): %+v", v)
	}
	if v := in.Judge(0, 1, 5*sim.Microsecond); v.N != 1 {
		t.Fatalf("pre-window send dropped: %+v", v)
	}
	if v := in.Judge(1, 0, 15*sim.Microsecond); v.N != 1 {
		t.Fatalf("reverse link affected by the window: %+v", v)
	}
	if in.rng.State() != before {
		t.Fatal("down-window judgement consumed random draws")
	}
}

// TestScriptedNthDrop: a script kills exactly the Nth payload on its
// link, counted per link in send order, with no randomness.
func TestScriptedNthDrop(t *testing.T) {
	p := Plan{Scripts: []Script{{Src: 0, Dst: 1, Nth: 3}, {Src: 0, Dst: 1, Nth: 5}}}
	in := New(p, 1)
	var dropped []int
	for i := 1; i <= 8; i++ {
		if v := in.Judge(0, 1, sim.Time(i)); v.N == 0 {
			dropped = append(dropped, i)
		}
		// Interleave traffic on another link: it must not advance the
		// scripted link's counter.
		if v := in.Judge(1, 0, sim.Time(i)); v.N != 1 {
			t.Fatalf("unscripted link lost message %d", i)
		}
	}
	if len(dropped) != 2 || dropped[0] != 3 || dropped[1] != 5 {
		t.Fatalf("scripted drops hit %v, want [3 5]", dropped)
	}
}

// TestDupAndJitterShape: duplicated verdicts carry two copies and
// jitter stays within the configured bound.
func TestDupAndJitterShape(t *testing.T) {
	p := Plan{Default: LinkFaults{Dup: 0.5, Jitter: 3 * sim.Microsecond}}
	in := New(p, 5)
	dups := 0
	for i := 0; i < 2000; i++ {
		v := in.Judge(0, 1, sim.Time(i))
		if v.N < 1 || v.N > 2 {
			t.Fatalf("verdict %d has N=%d", i, v.N)
		}
		if v.N == 2 {
			dups++
		}
		for c := 0; c < v.N; c++ {
			if v.Copies[c].Delay > 3*sim.Microsecond {
				t.Fatalf("jitter %v exceeds bound", v.Copies[c].Delay)
			}
			if v.Copies[c].Unordered {
				t.Fatal("reorder drawn with Reorder=0")
			}
		}
	}
	if dups < 800 || dups > 1200 {
		t.Fatalf("dup rate %d/2000 far from 0.5", dups)
	}
}
