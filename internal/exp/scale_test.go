package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"uldma/internal/sim"
)

// normalize strips the one configuration field that legitimately
// differs across layouts (the shard count) so ScalePoints from
// different partitions of the same world can be compared whole.
func normalizeScale(pt ScalePoint) ScalePoint {
	pt.Shards = 0
	return pt
}

// TestScaleShardParity pins the sharded engine's contract end to end
// through the experiment layer: the default small world produces an
// IDENTICAL observation — every latency percentile, every counter, the
// state fingerprint — at shards × workers {1,4,8}.
func TestScaleShardParity(t *testing.T) {
	p := Params{Nodes: 32, Arrival: 20000, ScaleDur: sim.Millisecond}
	var ref ScalePoint
	have := false
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			p.Shards = shards
			pt, err := RunScale(p, workers)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if pt.Shards != shards {
				t.Fatalf("ScalePoint.Shards = %d, want %d", pt.Shards, shards)
			}
			got := normalizeScale(pt)
			if !have {
				ref, have = got, true
				if ref.Completed == 0 || ref.Deliveries == 0 {
					t.Fatalf("degenerate reference run: %+v", ref)
				}
				continue
			}
			if got != ref {
				t.Errorf("shards=%d workers=%d diverges:\n got %+v\nwant %+v", shards, workers, got, ref)
			}
		}
	}
}

// TestScaleThousandNode is the acceptance pin: a 1000-node world with
// over 10^6 link deliveries completes byte-identically across the
// shard × worker grid. Under the race detector the grid shrinks to its
// diagonal (the full grid is already pinned above and by
// TestShardEquivalence; race multiplies the per-event cost ~10×).
func TestScaleThousandNode(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node world in -short mode")
	}
	p := Params{Nodes: 1000, Arrival: 55000, ScaleDur: 10 * sim.Millisecond}
	grid := [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}, {1, 4}, {8, 1}}
	if raceEnabled {
		grid = [][2]int{{1, 1}, {4, 4}, {8, 8}}
	}
	var ref ScalePoint
	have := false
	for _, sw := range grid {
		p.Shards = sw[0]
		pt, err := RunScale(p, sw[1])
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", sw[0], sw[1], err)
		}
		got := normalizeScale(pt)
		if !have {
			ref, have = got, true
			if ref.Deliveries < 1_000_000 {
				t.Fatalf("only %d link deliveries — the acceptance pin needs >= 10^6", ref.Deliveries)
			}
			if ref.Nodes != 1000 {
				t.Fatalf("Nodes = %d, want 1000", ref.Nodes)
			}
			continue
		}
		if got != ref {
			t.Errorf("shards=%d workers=%d diverges at 1000 nodes:\n got %+v\nwant %+v", sw[0], sw[1], got, ref)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		msg  string // the error names this
	}{
		{"one node", Params{Nodes: 1}, "-nodes 1"},
		{"negative nodes", Params{Nodes: -3}, "-nodes -3"},
		{"shards above nodes", Params{Nodes: 4, Shards: 5}, "-shards 5"},
		{"negative shards", Params{Shards: -1}, "-shards -1"},
		{"negative arrival", Params{Arrival: -10}, "-arrival -10"},
		{"negative tenants", Params{Tenants: -1}, "-tenants -1"},
		{"negative duration", Params{ScaleDur: -sim.Millisecond}, "-ms -1"},
		{"zero inter-arrival", Params{Arrival: 3000000000000, Tenants: 2}, "-tenants 2"},
		// A 1 ps mean gap jitters to 0: the world would never advance.
		{"1 ps inter-arrival", Params{Arrival: 2000000000000, Tenants: 2}, "-arrival 2000000000000: too high for -tenants 2"},
	}
	for _, tc := range cases {
		// The cell expansion path must reject the same configs, so the
		// tools fail before spinning up a runner; an accepted config is
		// not run, as it may never finish.
		_, err := scaleCells(tc.p)
		if err == nil {
			t.Errorf("%s: scaleCells accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.msg)
		}
		if _, err := RunScale(tc.p, 1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// The registered experiment renders through the shared runner like
// every other spec.
func TestScaleExperimentRenders(t *testing.T) {
	p := Params{Nodes: 8, Shards: 2, Arrival: 10000, ScaleDur: 200 * sim.Microsecond}
	out, err := Report("scale", Text, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NOW at scale", "goodput", "fingerprint", "sync windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	r, err := RunNamed("scale", p)
	if err != nil {
		t.Fatal(err)
	}
	pts := Collect[ScalePoint](r)
	if len(pts) != 1 || pts[0].Deliveries == 0 {
		t.Fatalf("scale points = %+v, want one populated point", pts)
	}
	row := wireRow(t, pts[0])
	if row["Label"] != "8n/2s" {
		t.Fatalf("Label = %v, want 8n/2s", row["Label"])
	}
	if _, ok := row["HostNs"]; ok {
		t.Fatalf("HostNs emitted before any -bench fill: %v", row)
	}
}

// wireRow marshals a result struct the way the tools emit it and
// decodes the object back into a generic map.
func wireRow(t *testing.T, v any) map[string]any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	return row
}
