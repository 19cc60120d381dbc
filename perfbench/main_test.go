package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"uldma/internal/sim"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	builds: 2,

	table1Iters:  100,
	mixProcs:     10,
	mixIters:     10,
	quantum:      9,
	directIters:  20,
	ringProcs:    2,
	ringBatches:  2,
	churnProcs:   []int{6},
	churnBatches: 1,

	nodes:   16,
	shards:  2,
	arrival: 20000,
	tenants: 2,
	dur:     200 * sim.Microsecond,

	pagingPages:  12,
	pagingBudget: 4,
	transfers:    40,
	iotlbPages:   []int{4, 12},
	iotlbEntries: 8,
	obsPages:     6,
	obsTransfers: 20,
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// lastLine decodes the result object on stdout's last line, rejecting
// unknown keys.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r result
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out)
	}
	return r
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range order {
		for trace, want := range map[string][]metricDef{"0": e2eMetrics, "1": layerMetrics} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.01", "--trace", trace}
			if code := run(args, &stdout, &stderr, tinyScale); code != 0 {
				t.Fatalf("%s --trace %s: exit %d: %s", w.name, trace, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Value == nil {
					t.Errorf("%s --trace %s: metric %s missing", w.name, trace, m.name)
					continue
				}
				if got.Unit != m.unit {
					t.Errorf("%s --trace %s: %s unit %q, want %q", w.name, trace, m.name, got.Unit, m.unit)
				}
				if trace == "0" && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, *got.Value)
				}
			}
		}
	}
}

func TestCorruptedDigestLandsInFailRatio(t *testing.T) {
	o := options{seed: 5, sc: tinyScale}
	ref, err := initiatePass(o, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := initiatePass(o, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bad := check(ref, got); bad != 0 {
		t.Fatalf("identical passes: check = %d, want 0", bad)
	}
	got.cells[1].digest ^= 1
	if bad := check(ref, got); bad != got.cells[1].ops {
		t.Fatalf("flipped digest: check = %d, want the cell's %d ops", bad, got.cells[1].ops)
	}

	// The same corruption through the whole run lands in fail_ratio.
	w := *initiateWorkload
	calls := 0
	w.pass = func(o options, tr *tracer, workers int) (passResult, error) {
		pr, err := initiatePass(o, tr, workers)
		if calls++; calls > 1 {
			pr.cells[1].digest ^= 1
		}
		return pr, err
	}
	o.seconds, o.traced = 0.01, true
	rep, err := measure(&w, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rep.passes) * got.cells[1].ops; rep.failed != want {
		t.Errorf("failed = %d, want %d (%d passes x %d ops)", rep.failed, want, rep.passes, got.cells[1].ops)
	}
	if fr := rep.metrics["fail_ratio"].value; fr != float64(rep.failed)/float64(rep.attempted) || fr <= 0 {
		t.Errorf("fail_ratio = %v, want %d/%d", fr, rep.failed, rep.attempted)
	}
}

func TestPassesRepeatForASeed(t *testing.T) {
	for _, w := range order {
		o := options{seed: 9, sc: tinyScale}
		a, err := w.pass(o, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.pass(o, newTracer(), 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if bad := check(a, b); bad != 0 || a.failed != 0 || b.failed != 0 {
			t.Errorf("%s: %d ops differ between passes (failed %d, %d)", w.name, bad, a.failed, b.failed)
		}
	}
}

func TestSpanSelfTimesSumToTotal(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	for i := 0; i < 3; i++ {
		inner := tr.begin("inner")
		tr.end(inner)
	}
	// Interleaved, as preempted guests produce: a opens, b opens, a
	// closes, b closes.
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(a)
	tr.end(b)
	tr.end(outer)
	var self int64
	for _, st := range tr.stats {
		self += st.selfNs
	}
	if total := tr.stats["outer"].totalNs; self != total {
		t.Errorf("self times sum to %d ns, outer span lasted %d ns", self, total)
	}
	if c := tr.stats["inner"].calls; c != 3 {
		t.Errorf("inner calls = %d, want 3", c)
	}
	if len(tr.spans) != 6 || tr.spans[1].parent != 0 {
		t.Errorf("raw spans: %d kept, inner parent %d", len(tr.spans), tr.spans[1].parent)
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "initiate", "--trace", "2"},
		{"--workload", "initiate", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, tinyScale); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestCatalogueMatchesManifest keeps BENCHMARK.json and the metric
// catalogue in step.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(order) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(order))
	}
	for i, w := range man.Workloads {
		if w.Name != order[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, order[i].name)
		}
	}
	if len(man.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("manifest has %d end-to-end metrics, program %d", len(man.EndToEnd), len(e2eMetrics))
	}
	for i, m := range man.EndToEnd {
		if want := e2eMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, m, want)
		}
	}
	if len(man.PerLayer) != len(layerMetrics) {
		t.Fatalf("manifest has %d per-layer metrics, program %d", len(man.PerLayer), len(layerMetrics))
	}
	for i, m := range man.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, m, want)
		}
	}
}
