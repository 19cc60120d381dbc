package exp

// The experiment runner promises byte-identical results to the serial
// measurement loops for ANY worker count. These tests pin that promise
// against the core package's serial counterparts: every cell builds its
// own machine, so parallelising over cells must not perturb a single
// simulated picosecond. They run under -race in CI.

import (
	"reflect"
	"testing"

	userdma "uldma/internal/core"
)

var parityWorkers = []int{1, 2, 3, 4, 8}

// runRows runs the named experiment and collects its T rows in cell
// order.
func runRows[T any](t *testing.T, name string, p Params) []T {
	t.Helper()
	r, err := RunNamed(name, p)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, p.Procs, err)
	}
	return Collect[T](r)
}

func TestTable1Parity(t *testing.T) {
	const iters = 50
	want, err := userdma.Table1(iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parityWorkers {
		got := runRows[userdma.InitiationResult](t, "table1", Params{Iters: iters, Procs: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: table1 diverged from serial Table1\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func TestBusSweepParity(t *testing.T) {
	const iters = 30
	freqs := DefaultFreqs()
	want, err := userdma.BusSweep(iters, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parityWorkers {
		p := Params{Iters: iters, Procs: w}
		r, err := RunNamed("bussweep", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		groups := BusSweepGroups(r, p)
		if len(groups) != len(freqs) {
			t.Fatalf("workers=%d: %d frequency groups, want %d", w, len(groups), len(freqs))
		}
		for i, g := range groups {
			if g.Freq != freqs[i] {
				t.Errorf("workers=%d: group %d is %v, want %v", w, i, g.Freq, freqs[i])
			}
			if !reflect.DeepEqual(g.Rows, want[g.Freq]) {
				t.Errorf("workers=%d freq=%v: bussweep diverged from serial BusSweep", w, g.Freq)
			}
		}
	}
}

func TestBreakEvenParity(t *testing.T) {
	methods := BreakEvenMethods()
	want := make([][]userdma.BreakEvenPoint, len(methods))
	for i, m := range methods {
		pts, err := userdma.BreakEven(m, userdma.DefaultSizes)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pts
	}
	for _, w := range parityWorkers {
		p := Params{Procs: w}
		r, err := RunNamed("breakeven", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		groups := BreakEvenGroups(r, p)
		if len(groups) != len(methods) {
			t.Fatalf("workers=%d: %d method groups, want %d", w, len(groups), len(methods))
		}
		for i, g := range groups {
			if g.Method.Name() != methods[i].Name() {
				t.Errorf("workers=%d: group %d is %s, want %s", w, i, g.Method.Name(), methods[i].Name())
			}
			if !reflect.DeepEqual(g.Points, want[i]) {
				t.Errorf("workers=%d method=%s: breakeven diverged from serial BreakEven",
					w, g.Method.Name())
			}
		}
	}
}

func TestTrendSweepParity(t *testing.T) {
	const iters = 20
	want, err := userdma.TrendSweep(iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parityWorkers {
		p := Params{Iters: iters, Procs: w}
		r, err := RunNamed("trend", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := TrendPoints(r, p); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: trend diverged from serial TrendSweep\n got %+v\nwant %+v",
				w, TrendPoints(r, p), want)
		}
	}
}

func TestExhaustiveInterleavingsParity(t *testing.T) {
	for _, slots := range []int{1, 2, 3} {
		wantTried, wantHijack, wantErr := userdma.ExhaustiveInterleavings(slots)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for _, w := range parityWorkers {
			tried, hijack, err := ExhaustiveInterleavings(slots, w)
			if err != nil {
				t.Fatalf("slots=%d workers=%d: %v", slots, w, err)
			}
			if tried != wantTried {
				t.Errorf("slots=%d workers=%d: tried %d, serial %d", slots, w, tried, wantTried)
			}
			if !reflect.DeepEqual(hijack, wantHijack) {
				t.Errorf("slots=%d workers=%d: hijack %+v, serial %+v", slots, w, hijack, wantHijack)
			}
		}
	}
}

func TestCampaignParity(t *testing.T) {
	const n = 9
	want := make([]userdma.AttackOutcome, n)
	for seed := 1; seed <= n; seed++ {
		o, err := userdma.RandomAdversarialRun(uint64(seed), false, false)
		if err != nil {
			t.Fatal(err)
		}
		want[seed-1] = o
	}
	for _, w := range parityWorkers {
		got := runRows[userdma.AttackOutcome](t, "campaign", Params{Seeds: n, Procs: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: campaign diverged from serial seed loop", w)
		}
	}
}

func TestContentionParity(t *testing.T) {
	const iters = 100
	want, err := userdma.ContextContention(userdma.ExtShadow{}, 6, iters/10+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parityWorkers {
		got := runRows[userdma.InitiationResult](t, "contention", Params{Iters: iters, Procs: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: contention diverged from serial ContextContention", w)
		}
	}
}

// Repeating a parallel sweep with different seeds of work (three
// distinct iteration counts stand in for "three seeds": each produces a
// different deterministic table) guards against any worker-count- or
// scheduling-order-dependence leaking into results.
func TestTable1StableAcrossRuns(t *testing.T) {
	for _, iters := range []int{10, 25, 40} {
		p := Params{Iters: iters, Procs: 4}
		first := runRows[userdma.InitiationResult](t, "table1", p)
		for run := 0; run < 2; run++ {
			again := runRows[userdma.InitiationResult](t, "table1", p)
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("iters=%d run=%d: table1 not reproducible", iters, run)
			}
		}
	}
}

// The old bus-sweep driver returned a map keyed by frequency; iterating
// it while rendering was latent nondeterminism. The experiment result
// is an ordered slice — rendering the SAME sweep twice, and a re-run
// of the sweep once more, must produce identical bytes.
func TestBusSweepRenderDeterministic(t *testing.T) {
	const iters = 20
	p := Params{Iters: iters, Procs: 4}
	r, err := RunNamed("bussweep", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{Text, Markdown} {
		a, err := RenderNamed("bussweep", f, r, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RenderNamed("bussweep", f, r, p)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("format %v: rendering the same bussweep result twice differed", f)
		}
		r2, err := RunNamed("bussweep", p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := RenderNamed("bussweep", f, r2, p)
		if err != nil {
			t.Fatal(err)
		}
		if a != c {
			t.Fatalf("format %v: re-running the bussweep changed the rendered bytes", f)
		}
	}
}
