package exp

import (
	"reflect"
	"strings"
	"testing"
)

// faultParityWorkers is deliberately {1, 4, 8}: serial as the
// reference, then two parallel fan-outs. Under -race (CI) this also
// proves the per-cell worlds share no state.
var faultParityWorkers = []int{1, 4, 8}

// TestFaultSweepParityAcrossWorkers pins the fault plane's determinism
// contract end to end: the full faultsweep — per-message latencies,
// goodput, retransmit counters AND the fabric's fault statistics —
// is byte-identical for any worker count. Fabric.Counters() is part of
// the compared rows, so a single drop/dup/reorder verdict landing
// differently under parallel cell execution fails the test.
func TestFaultSweepParityAcrossWorkers(t *testing.T) {
	p := Params{Msgs: 8}
	var want []FaultPoint
	for _, w := range faultParityWorkers {
		p.Procs = w
		r, err := RunNamed("faultsweep", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rows := Collect[FaultPoint](r)
		if len(rows) != len(FaultDrops())*len(FaultSizes()) {
			t.Fatalf("workers=%d: %d rows", w, len(rows))
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: faultsweep diverged from serial run\n got %+v\nwant %+v", w, rows, want)
		}
	}
	// The control rows really are controls, and the lossy rows really
	// paid for recovery.
	for _, row := range want {
		if row.Drop == 0 && (row.Retransmits != 0 || row.Dropped != 0) {
			t.Errorf("control row %s paid recovery traffic: %+v", row.Label, row)
		}
		if row.Drop >= 0.2 && row.Retransmits == 0 {
			t.Errorf("lossy row %s never retransmitted: %+v", row.Label, row)
		}
	}
}

func TestRecoveryParityAcrossWorkers(t *testing.T) {
	p := Params{Msgs: 16}
	var want []RecoveryPoint
	for _, w := range faultParityWorkers {
		p.Procs = w
		r, err := RunNamed("recovery", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rows := Collect[RecoveryPoint](r)
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: recovery diverged from serial run\n got %+v\nwant %+v", w, rows, want)
		}
	}
	for _, row := range want {
		if row.Retransmits == 0 {
			t.Errorf("outage %s forced no retransmissions: %+v", row.Label, row)
		}
	}
}

// TestFaultSearchHoldsAndIsParallelSafe: the bounded interleaving ×
// fault-plan hunt finds no delivery violation, with identical verdicts
// (and schedule counts) for any worker count.
func TestFaultSearchHoldsAndIsParallelSafe(t *testing.T) {
	p := Params{Seeds: 3, Slots: 3}
	var want []FaultSearchPoint
	for _, w := range faultParityWorkers {
		p.Procs = w
		r, err := RunNamed("faultsearch", p)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if r.Stopped != nil {
			t.Fatalf("workers=%d: delivery violation: %+v", w, r.Stopped.Obs)
		}
		rows := Collect[FaultSearchPoint](r)
		for _, row := range rows {
			if row.Schedules == 0 {
				t.Fatalf("workers=%d: seed %d explored nothing", w, row.Seed)
			}
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers=%d: faultsearch diverged\n got %+v\nwant %+v", w, rows, want)
		}
	}
}

// TestFaultRendersDeterministic: rendering the same result twice, and a
// re-run once more, produces identical bytes in both formats.
func TestFaultRendersDeterministic(t *testing.T) {
	for _, name := range []string{"faultsweep", "recovery"} {
		p := Params{Msgs: 6, Procs: 4}
		r, err := RunNamed(name, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Format{Text, Markdown} {
			a, err := RenderNamed(name, f, r, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RenderNamed(name, f, r, p)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s format %d: double render differed", name, f)
			}
			r2, err := RunNamed(name, p)
			if err != nil {
				t.Fatal(err)
			}
			c, err := RenderNamed(name, f, r2, p)
			if err != nil {
				t.Fatal(err)
			}
			if a != c {
				t.Fatalf("%s format %d: re-run changed the rendered bytes", name, f)
			}
			if !strings.Contains(a, "|") && f == Markdown {
				t.Fatalf("%s markdown render has no table", name)
			}
		}
	}
}
