package exp

import (
	"strings"
	"testing"

	"uldma/internal/sim"
)

// normalizeScaleM strips the one configuration field that legitimately
// differs across layouts (the shard count) so ScaleMachinePoints from
// different partitions of the same world can be compared whole —
// including the engine aggregates and the per-node machine digest.
func normalizeScaleM(pt ScaleMachinePoint) ScaleMachinePoint {
	pt.Shards = 0
	return pt
}

// TestScaleMachineShardParity is the tentpole pin: a 128-node world of
// FULL machines — every RPC running the extshadow initiation sequence
// through its node's real DMA engine — produces an IDENTICAL
// observation (latencies, engine counters, machine digest, cluster
// fingerprint) at shards × workers {1,4,8}. The world is small enough
// to run the full 3×3 grid under the race detector too.
func TestScaleMachineShardParity(t *testing.T) {
	p := Params{Nodes: 128, Arrival: 5000, ScaleDur: sim.Millisecond}
	var ref ScaleMachinePoint
	have := false
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			p.Shards = shards
			pt, err := RunScaleMachineNamed("extshadow", p, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if pt.Shards != shards {
				t.Fatalf("ScaleMachinePoint.Shards = %d, want %d", pt.Shards, shards)
			}
			got := normalizeScaleM(pt)
			if !have {
				ref, have = got, true
				if ref.Completed == 0 || ref.EngCompleted == 0 || ref.MachineDigest == 0 {
					t.Fatalf("degenerate reference run: %+v", ref)
				}
				if ref.EngRejected != 0 {
					t.Fatalf("%d engine rejections — the Bump serialization should keep engines free", ref.EngRejected)
				}
				continue
			}
			if got != ref {
				t.Errorf("shards=%d workers=%d diverges:\n got %+v\nwant %+v", shards, workers, got, ref)
			}
		}
	}
}

// TestScaleMachineProtocols pins the paper's Table-1 thesis at cluster
// scale: with real initiation sequences, the kernel-mediated protocol's
// RPC latency is strictly worse than every user-level protocol's.
func TestScaleMachineProtocols(t *testing.T) {
	p := Params{Nodes: 16, Shards: 4, Arrival: 5000, ScaleDur: sim.Millisecond}
	p50 := map[string]sim.Time{}
	for _, name := range []string{"kernel", "extshadow", "keybased", "repeated"} {
		pt, err := RunScaleMachineNamed(name, p, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pt.Completed == 0 {
			t.Fatalf("%s: no completed RPCs", name)
		}
		p50[pt.Protocol] = pt.P50
	}
	for _, user := range []string{"extshadow", "keybased", "repeated"} {
		if p50[user] >= p50["kernel"] {
			t.Errorf("p50 %s (%v) >= kernel (%v) — kernel traps should dominate", user, p50[user], p50["kernel"])
		}
	}
}

// TestScaleMachineThousandNode is the acceptance pin at cluster scale:
// 1000 full machines, byte-identical across the shard × worker grid.
// Under the race detector the grid shrinks to its diagonal (the full
// grid is pinned above at 128 nodes; race multiplies event cost ~10×).
func TestScaleMachineThousandNode(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine world in -short mode")
	}
	p := Params{Nodes: 1000, Arrival: 2000, ScaleDur: sim.Millisecond}
	grid := [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}, {1, 4}, {8, 1}}
	if raceEnabled {
		grid = [][2]int{{1, 1}, {4, 4}, {8, 8}}
	}
	var ref ScaleMachinePoint
	have := false
	for _, sw := range grid {
		p.Shards = sw[0]
		pt, err := RunScaleMachineNamed("extshadow", p, sw[1])
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", sw[0], sw[1], err)
		}
		got := normalizeScaleM(pt)
		if !have {
			ref, have = got, true
			if ref.Nodes != 1000 {
				t.Fatalf("Nodes = %d, want 1000", ref.Nodes)
			}
			if ref.Completed == 0 || ref.EngCompleted == 0 {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d workers=%d diverges at 1000 machines:\n got %+v\nwant %+v", sw[0], sw[1], got, ref)
		}
	}
}

func TestScaleMachineValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"one node", Params{Nodes: 1}},
		{"nodes above the remote window", Params{Nodes: scaleMMaxNodes + 1}},
		{"request below the tag", Params{ScaleBytes: 4}},
		{"request above a page", Params{ScaleBytes: scaleMPage + 1}},
		{"negative arrival", Params{Arrival: -10}},
	}
	for _, tc := range cases {
		if _, err := RunScaleMachineNamed("extshadow", tc.p, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// The cell expansion path must reject the same configs, so the
		// tools fail before spinning up a runner.
		if _, err := scaleMachineCells(tc.p); err == nil {
			t.Errorf("%s: scaleMachineCells accepted", tc.name)
		}
	}
	for _, name := range []string{"bogus", "all"} {
		if _, err := RunScaleMachineNamed(name, Params{Nodes: 8}, 1); err == nil {
			t.Errorf("RunScaleMachineNamed accepted %q", name)
		}
	}
	if _, err := scaleMachineCells(Params{Protocol: "bogus"}); err == nil {
		t.Error("scaleMachineCells accepted an unknown protocol")
	}
	for _, name := range []string{"", "all"} {
		ms, err := selectProtocols(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if len(ms) != 4 {
			t.Errorf("%q expands to %d protocols, want 4", name, len(ms))
		}
	}
}

// The registered experiment renders through the shared runner like
// every other spec, and its typed JSON rows are populated.
func TestScaleMachineRenders(t *testing.T) {
	p := Params{Nodes: 8, Shards: 2, Arrival: 5000, ScaleDur: 500 * sim.Microsecond, Protocol: "extshadow"}
	out, err := Report("scalemachine", Text, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Machines at cluster scale", "initiation protocol", "goodput", "digest", "determinism pin"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	r, err := RunNamed("scalemachine", p)
	if err != nil {
		t.Fatal(err)
	}
	pts := Collect[ScaleMachinePoint](r)
	if len(pts) != 1 || pts[0].Completed == 0 || pts[0].MachineDigest == 0 {
		t.Fatalf("scalemachine points = %+v, want one populated point", pts)
	}
	row := wireRow(t, pts[0])
	if row["Label"] != "extshadow/8n/2s" {
		t.Fatalf("Label = %v, want extshadow/8n/2s", row["Label"])
	}
	if _, ok := row["HostNs"]; ok {
		t.Fatalf("HostNs emitted before any -bench fill: %v", row)
	}

	// The full line-up: one cell per protocol.
	p.Protocol = "all"
	r, err = RunNamed("scalemachine", p)
	if err != nil {
		t.Fatal(err)
	}
	if rows := Collect[ScaleMachinePoint](r); len(rows) != 4 {
		t.Fatalf("protocol=all yields %d rows, want 4", len(rows))
	}
}
