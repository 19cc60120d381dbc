package machine

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/obs"
)

// metricNames lists r's metric names in registration order.
func metricNames(r *obs.Registry) []string {
	var out []string
	for _, mv := range r.Snapshot() {
		out = append(out, mv.Name)
	}
	return out
}

// TestRegistryCoversEveryComponent pins the registry's shape: a fixed,
// deterministic registration order spanning every component, identical
// across identically built machines.
func TestRegistryCoversEveryComponent(t *testing.T) {
	m := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	names := metricNames(m.Obs)
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	prefixes := map[string]bool{}
	for _, n := range names {
		for i := range n {
			if n[i] == '.' {
				prefixes[n[:i]] = true
				break
			}
		}
	}
	for _, want := range []string{"cpu", "tlb", "bus", "wb", "phys", "dma", "proc", "kernel"} {
		if !prefixes[want] {
			t.Fatalf("no %q.* metrics registered (have %v)", want, names)
		}
	}
	// Deterministic order: a second identically built machine renders
	// the identical name sequence.
	m2 := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	names2 := metricNames(m2.Obs)
	if len(names) != len(names2) {
		t.Fatalf("registries differ in size: %d vs %d", len(names), len(names2))
	}
	for i := range names {
		if names[i] != names2[i] {
			t.Fatalf("registration order differs at %d: %q vs %q", i, names[i], names2[i])
		}
	}
}

// TestCounterRewindRule pins the rewind-with-the-world rule uniformly
// across EVERY registered metric: a clone hydrated from a snapshot
// reports the counters AS OF the snapshot — never the origin's later
// activity — and an in-place Restore rewinds the origin the same way.
// Before obs, each component had its own snapshot story; this test is
// the single contract they all satisfy now.
func TestCounterRewindRule(t *testing.T) {
	origin := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	dmaWorkload(t, origin)

	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	atSnapshot := origin.Obs.Snapshot()

	// Diverge the origin: more activity moves its counters past the
	// snapshot on every layer the workload touches.
	dmaWorkload(t, origin)
	moved := false
	for i, mv := range origin.Obs.Snapshot() {
		if mv.Value != atSnapshot[i].Value {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("second workload moved no counters; the divergence test is vacuous")
	}

	// A clone hydrated from the snapshot must report every metric as of
	// the snapshot.
	clone, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, mv := range clone.Obs.Snapshot() {
		if mv != atSnapshot[i] {
			t.Fatalf("clone metric %s = %d, want snapshot-time %d (origin's later activity leaked)",
				mv.Name, mv.Value, atSnapshot[i].Value)
		}
	}

	// In-place restore rewinds the origin identically.
	if err := origin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i, mv := range origin.Obs.Snapshot() {
		if mv != atSnapshot[i] {
			t.Fatalf("restored origin metric %s = %d, want %d", mv.Name, mv.Value, atSnapshot[i].Value)
		}
	}
}

// TestTraceRewindWithWorld extends the rewind rule to the trace spine:
// snapshot captures the trace's state, Restore rewinds it, and
// NewFromSnapshot re-enacts tracing on the clone — rewound, with the
// origin's capacity and policy.
func TestTraceRewindWithWorld(t *testing.T) {
	origin := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	tr := origin.EnableTrace(128, obs.Ring)
	dmaWorkload(t, origin)
	if tr.Emitted() == 0 {
		t.Fatal("workload emitted no trace events")
	}

	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantEmitted, wantDropped := tr.Emitted(), tr.Dropped()
	wantEvents := tr.Events()

	dmaWorkload(t, origin)
	if tr.Emitted() == wantEmitted {
		t.Fatal("second workload emitted nothing; divergence is vacuous")
	}

	clone, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Tracer == nil {
		t.Fatal("clone did not re-enact tracing")
	}
	if clone.Tracer == tr {
		t.Fatal("clone shares the origin's trace; must have its own")
	}
	if clone.Tracer.State().Cap() != 128 {
		t.Fatalf("clone trace cap = %d, want 128", clone.Tracer.State().Cap())
	}
	if clone.Tracer.Emitted() != wantEmitted || clone.Tracer.Dropped() != wantDropped {
		t.Fatalf("clone trace emitted/dropped = %d/%d, want %d/%d",
			clone.Tracer.Emitted(), clone.Tracer.Dropped(), wantEmitted, wantDropped)
	}
	cloneEvents := clone.Tracer.Events()
	if len(cloneEvents) != len(wantEvents) {
		t.Fatalf("clone has %d events, want %d", len(cloneEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if cloneEvents[i] != wantEvents[i] {
			t.Fatalf("clone event %d = %+v, want %+v", i, cloneEvents[i], wantEvents[i])
		}
	}

	// And the fingerprint sees the tracer words rewind too.
	if err := origin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tr.Emitted() != wantEmitted || tr.Dropped() != wantDropped {
		t.Fatalf("restored trace emitted/dropped = %d/%d, want %d/%d",
			tr.Emitted(), tr.Dropped(), wantEmitted, wantDropped)
	}
}

// TestCloneTraceDiverges is the flip side: after hydration, origin and
// clone trace independently.
func TestCloneTraceDiverges(t *testing.T) {
	origin := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	origin.EnableTrace(0, obs.Ring)
	dmaWorkload(t, origin)
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := clone.Tracer.Emitted()
	dmaWorkload(t, clone)
	if clone.Tracer.Emitted() == base {
		t.Fatal("clone workload emitted nothing")
	}
	if origin.Tracer.Emitted() != base {
		t.Fatalf("clone activity leaked into origin trace: %d vs %d", origin.Tracer.Emitted(), base)
	}
}

// dmaWorkload is defined in snapshot_test.go.

// TestFingerprintZeroAllocs holds Fingerprint to its doc comment: the
// convergence detector samples it every measurement iteration, so it
// must not allocate.
func TestFingerprintZeroAllocs(t *testing.T) {
	m := MustNew(Alpha3000TC(dma.ModeExtended, 0))
	dmaWorkload(t, m)
	var sink Fingerprint
	if allocs := testing.AllocsPerRun(100, func() { sink = m.Fingerprint() }); allocs != 0 {
		t.Fatalf("Fingerprint allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}
