package exp

// The steered loop's two load-bearing claims, pinned:
//
//   1. Same answer, strictly fewer cells — the bisected break-even
//      frontier is byte-identical to the exhaustive grid's crossovers
//      while probing strictly fewer cells; the dominated-abort walk
//      leaves the grid's best policy standing without running the
//      aborted cells.
//   2. Worker-count invariance — the full steered suite (probes,
//      rounds, decisions, renderings) is byte-identical at -procs
//      {1, 4, 8}, because policies only ever see batch-ordered merged
//      history.

import (
	"strings"
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
)

// TestSteerBreakEvenMatchesExhaustive pins the headline equivalence:
// per method, the steered bisect lands on the exhaustive grid's exact
// crossover size, in strictly fewer probes than the grid has cells.
func TestSteerBreakEvenMatchesExhaustive(t *testing.T) {
	r, err := RunNamed("breakeven", Params{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	groups := BreakEvenGroups(r, Params{Procs: 2})
	res, lanes, err := SteeredBreakEven(Params{Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != len(groups) {
		t.Fatalf("steered search has %d lanes, exhaustive grid %d methods", len(lanes), len(groups))
	}
	for i, g := range groups {
		want, wantFound := userdma.Crossover(g.Points)
		lane := lanes[i]
		if lane.Method != g.Method.Name() {
			t.Fatalf("lane %d is %s, exhaustive row is %s", i, lane.Method, g.Method.Name())
		}
		if lane.Found != wantFound || lane.Crossover != want {
			t.Errorf("%s: steered crossover (%d, %v), exhaustive (%d, %v)",
				lane.Method, lane.Crossover, lane.Found, want, wantFound)
		}
		if lane.Probes >= len(g.Points) {
			t.Errorf("%s: bisect probed %d cells, grid row has %d — not strictly fewer",
				lane.Method, lane.Probes, len(g.Points))
		}
	}
	if res.Probed() >= res.GridCells {
		t.Fatalf("steered search probed %d of a %d-cell grid — not strictly fewer", res.Probed(), res.GridCells)
	}
}

// TestSteerWorkerParity renders the full steered suite at three worker
// counts and demands byte-identical output: policies see only merged
// batch-ordered history, so the search is invariant to how batches
// fan out.
func TestSteerWorkerParity(t *testing.T) {
	var ref string
	for _, procs := range []int{1, 4, 8} {
		text, err := Report("steer", Text, Params{Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if ref == "" {
			ref = text
			continue
		}
		if text != ref {
			t.Fatalf("steered suite diverges at procs=%d:\n--- procs=1 ---\n%s\n--- procs=%d ---\n%s",
				procs, ref, procs, text)
		}
	}
}

// TestSteerPagingDominated pins the dominated-abort walk: at least one
// recovery policy is aborted mid-grid (its remaining cells never run),
// the pre-pin policy survives, and every probe carried the live feed.
func TestSteerPagingDominated(t *testing.T) {
	res, survivors, err := SteeredPaging(Params{Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probed() >= res.GridCells {
		t.Fatalf("dominated walk probed %d of a %d-cell grid — nothing aborted", res.Probed(), res.GridCells)
	}
	if aborts := res.Log.count(ActAbort); aborts == 0 {
		t.Fatal("no abort decisions recorded despite probing fewer cells than the grid")
	}
	found := false
	for _, s := range survivors {
		if s == "pin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("kernel-assisted pin was aborted (survivors %v); the exhaustive grid shows it undominated", survivors)
	}
	for _, probe := range res.Probes {
		pr := probe.Obs[0].(userdma.PagingResult)
		if pr.LiveSamples != pr.Transfers {
			t.Fatalf("%s/%dp: live feed took %d samples over %d transfers",
				pr.Policy, pr.Pages, pr.LiveSamples, pr.Transfers)
		}
	}
}

// TestSteerZoomDeterministic pins the zoom search: it splits (not just
// probes the coarse axis), brackets a non-degenerate knee inside the
// drop range, and replays byte-identically.
func TestSteerZoomDeterministic(t *testing.T) {
	run := func() (*SteerResult, *ZoomPolicy) {
		res, pol, err := SteeredFaultZoom(Params{Procs: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, pol
	}
	res, pol := run()
	if splits := res.Log.count(ActSplit); splits != steerZoomSplits {
		t.Fatalf("zoom performed %d splits, want %d", splits, steerZoomSplits)
	}
	lo, hi := pol.Knee()
	drops := FaultDrops()
	if !(lo >= drops[0] && hi <= drops[len(drops)-1] && lo < hi) {
		t.Fatalf("knee [%v, %v] outside drop axis [%v, %v]", lo, hi, drops[0], drops[len(drops)-1])
	}
	if res.GridCells <= res.Probed() {
		t.Fatalf("zoom probed %d cells but its resolution only equals a %d-cell uniform grid",
			res.Probed(), res.GridCells)
	}
	res2, pol2 := run()
	lo2, hi2 := pol2.Knee()
	if lo != lo2 || hi != hi2 || res.Log.Render() != res2.Log.Render() {
		t.Fatalf("zoom replay diverged: knee [%v,%v] vs [%v,%v]\n%s\nvs\n%s",
			lo, hi, lo2, hi2, res.Log.Render(), res2.Log.Render())
	}
}

// TestSteerOSLatConverges pins the ladder: the null-syscall mean
// converges before the ladder tops out, so the steered run pays fewer
// iterations than the exhaustive worst case.
func TestSteerOSLatConverges(t *testing.T) {
	res, pol, err := SteeredOSLat(Params{Procs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	iters, mean := pol.Converged()
	if iters == 0 || mean == 0 {
		t.Fatalf("ladder did not converge: iters=%d mean=%v", iters, mean)
	}
	ladder := ConvergeLadder()
	if res.Probed() >= len(ladder) {
		t.Fatalf("ladder probed all %d rungs — no early convergence", len(ladder))
	}
	if iters != ladder[res.Probed()-1] {
		t.Fatalf("accepted iters=%d is not the last probed rung (%d)", iters, ladder[res.Probed()-1])
	}
}

// TestSteerDecisionTrace pins the trace mirroring: every decision of a
// steered run lands on the obs spine as a CatSteer instant, readable
// through a streaming Reader while the searches run.
func TestSteerDecisionTrace(t *testing.T) {
	tr := obs.NewTrace(4096, obs.Ring)
	rd := tr.NewReader()
	res, _, err := SteeredBreakEven(Params{Procs: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	events, skipped := rd.Poll(nil)
	if skipped != 0 {
		t.Fatalf("reader skipped %d events under a 4096 cap", skipped)
	}
	decisions := res.Log.Decisions()
	if len(events) != len(decisions) {
		t.Fatalf("trace carries %d steer events, log has %d decisions", len(events), len(decisions))
	}
	for i, ev := range events {
		if ev.Cat != obs.CatSteer {
			t.Fatalf("event %d is cat=%s, want steer", i, ev.Cat)
		}
		d := decisions[i]
		if want := string(d.Act) + " " + d.Cell; ev.Name != want {
			t.Fatalf("event %d named %q, decision was %q", i, ev.Name, want)
		}
		if ev.A0 != uint64(d.Round) {
			t.Fatalf("event %d carries round %d, decision was round %d", i, ev.A0, d.Round)
		}
	}
	if !strings.Contains(res.Log.Render(), "probe") {
		t.Fatal("decision log renders without a single probe line")
	}
}
