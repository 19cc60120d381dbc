package exp

// Unit tests of the generic runner's determinism contract: cell-order
// errors, search-stop semantics, partial results, and the registry.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// gridExperiment builds a synthetic n-cell experiment whose cells
// record their observation index and consult fail/stop maps.
func gridExperiment(n int, fail map[int]error, stop map[int]bool, ran *int64) *Experiment {
	return &Experiment{
		Name: "synthetic",
		Cells: func(Params) ([]Cell, error) {
			cells := make([]Cell, n)
			for i := range cells {
				i := i
				cells[i] = Cell{Seed: uint64(i), Run: func() (Obs, bool, error) {
					if ran != nil {
						atomic.AddInt64(ran, 1)
					}
					if err := fail[i]; err != nil {
						return nil, false, err
					}
					return Obs{Row{Name: fmt.Sprintf("cell%d", i)}}, stop[i], nil
				}}
			}
			return cells, nil
		},
	}
}

func TestRunOrdersResults(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		r, err := Run(gridExperiment(17, nil, nil, nil), Params{Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if r.Tried != 17 || len(r.Cells) != 17 || r.Stopped != nil {
			t.Fatalf("procs=%d: Tried=%d len=%d Stopped=%v", procs, r.Tried, len(r.Cells), r.Stopped)
		}
		for i, row := range Collect[Row](r) {
			if want := fmt.Sprintf("cell%d", i); row.Name != want {
				t.Fatalf("procs=%d: row %d is %q, want %q", procs, i, row.Name, want)
			}
		}
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, procs := range []int{1, 2, 8} {
		r, err := Run(gridExperiment(12, map[int]error{3: errLow, 9: errHigh}, nil, nil),
			Params{Procs: procs})
		if !errors.Is(err, errLow) {
			t.Fatalf("procs=%d: got error %v, want the lowest-indexed cell's (%v)", procs, err, errLow)
		}
		if r == nil || r.Tried != 4 {
			t.Fatalf("procs=%d: partial result Tried=%v, want 4 (cells 0..3 decided)", procs, r)
		}
		if len(r.Cells) != 3 {
			t.Fatalf("procs=%d: %d completed cells before the failure, want 3", procs, len(r.Cells))
		}
	}
}

func TestRunStopsAtLowestIndexedStop(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		var ran int64
		r, err := Run(gridExperiment(40, nil, map[int]bool{7: true, 11: true}, &ran),
			Params{Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if r.Tried != 8 {
			t.Fatalf("procs=%d: Tried=%d, want 8 (stop at cell 7 in grid order)", procs, r.Tried)
		}
		if r.Stopped == nil || r.Stopped.Cell.Seed != 7 {
			t.Fatalf("procs=%d: Stopped=%+v, want the cell with seed 7", procs, r.Stopped)
		}
		if r.Stopped != &r.Cells[len(r.Cells)-1] {
			t.Fatalf("procs=%d: Stopped must alias the last merged cell", procs)
		}
		// Workers may race ahead of the stopping cell, but the runner
		// must never leave a lower-indexed cell unfinished.
		if ran < 8 {
			t.Fatalf("procs=%d: only %d cells ran; every cell below the stop must complete", procs, ran)
		}
	}
}

func TestRunCellExpansionError(t *testing.T) {
	boom := errors.New("boom")
	e := &Experiment{Name: "bad", Cells: func(Params) ([]Cell, error) { return nil, boom }}
	if _, err := Run(e, Params{}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the expansion error", err)
	}
}

func TestRegistry(t *testing.T) {
	// Every spec the tools depend on is registered.
	for _, name := range []string{
		"table1", "comparators", "contention", "bussweep", "breakeven",
		"trend", "exhaustive", "campaign", "oslat", "clustersim",
		"syscall", "atomics", "libraries", "attacks", "overview", "bustrace", "metrics",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	list := List()
	for _, name := range names {
		if !strings.Contains(list, name) {
			t.Errorf("List() does not mention %q", name)
		}
	}
	if _, err := RunNamed("no-such-experiment", Params{}); err == nil {
		t.Error("RunNamed on an unknown name must fail")
	}
	if _, err := Report("exhaustive", Text, Params{Slots: 1}); err == nil {
		t.Error("Report must fail for an experiment without the requested renderer")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, e *Experiment) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	mustPanic("empty name", &Experiment{})
	mustPanic("duplicate", &Experiment{Name: "table1"})
}

// TestDocumentWorkerParity: the one JSON document is byte-identical at
// any worker count, including the metrics section, whose per-method
// worlds fan out on the runner like every other grid.
func TestDocumentWorkerParity(t *testing.T) {
	var ref []byte
	for _, w := range []int{1, 4} {
		d, err := Document(20, BenchSections(Params{Iters: 20, Procs: w}, "table1", "comparators", "metrics"))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(d.Comparators) != 4 || len(d.Metrics) != len(d.Table1) {
			t.Fatalf("workers=%d: %d comparators and %d metric sets for %d Table 1 rows",
				w, len(d.Comparators), len(d.Metrics), len(d.Table1))
		}
		got, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if string(got) != string(ref) {
			t.Fatalf("workers=%d: document differs from the serial one", w)
		}
	}
	if _, err := Document(20, []Section{{Name: "oslat"}}); err == nil {
		t.Error("Document must fail for an experiment without a JSON section")
	}
}

// TestClusterSizeBeyondFlagSlot: a clustersim payload that would reach
// the mailbox's doorbell flag word is refused before any world is
// built — at 8193 B the engine refuses the send and the receiver would
// otherwise poll a flag that never arrives — while one that ends just
// below the flag word runs.
func TestClusterSizeBeyondFlagSlot(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := RunNamed("clustersim", Params{Msgs: 1, MsgSize: 8193})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "flag word") {
			t.Fatalf("8193-byte clustersim: err = %v, want the flag-word refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("8193-byte clustersim still running after 10s")
	}
	if _, err := RunNamed("clustersim", Params{Msgs: 1, MsgSize: clusterFlagSlot}); err != nil {
		t.Fatalf("%d-byte clustersim: %v", clusterFlagSlot, err)
	}
}
