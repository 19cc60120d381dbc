package main

// The measurement loop shared by every workload: set-up, an untimed
// reference pass, timed passes until the time budget is spent, the
// per-pass output check, and the assembly of the result's metrics.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value; its unit is in the catalogue. n, when
// non-zero, is the sample count behind a percentile.
type metric struct {
	value float64
	n     int64
}

// cell is one independently checked unit of a pass: its ops and a
// digest of everything the simulator reported for it.
type cell struct {
	name   string
	ops    int64
	digest uint64
}

// passResult is one pass over a workload's whole mix.
type passResult struct {
	ops    int64
	failed int64              // ops that errored or failed the pass's own checks
	cells  []cell             // compared against the reference pass
	sim    map[string]metric  // the workload's simulated end-to-end metrics
	counts map[string]float64 // simulated counters behind the per-layer metrics
}

// workload is one benchmark workload.
type workload struct {
	name string
	// build constructs the worlds one pass runs on, without traffic:
	// the repeatable part of set-up.
	build func(o options, tr *tracer) error
	// pass runs the whole mix once. workers is the intra-world host
	// worker count where the workload has one (cluster_rpc).
	pass func(o options, tr *tracer, workers int) (passResult, error)
	// layers derives the per-layer metrics from the reference pass's
	// counters and the traced passes' spans.
	layers func(ref passResult, tr *tracer, tracedPasses int) map[string]float64
	// ladder marks a workload whose traced run also times 1-worker
	// passes, for par.speedup_2w.
	ladder bool
}

// options are one run's inputs.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	sc      scale
}

// report is one run's outcome.
type report struct {
	passes    int
	attempted int64
	failed    int64
	metrics   map[string]metric
	tracer    *tracer
	rates     []float64 // ops per host second of each untraced timed pass
}

// minPasses is the fewest timed passes a run makes, whatever the time
// budget, so every median has a few samples.
const minPasses = 3

// passKind is what one timed pass of the traced run measures.
type passKind int

const (
	untraced passKind = iota
	traced
	oneWorker // untraced at 1 worker (the par.speedup_2w ladder)
)

// kinds returns the repeating pass cycle of a run.
func kinds(w *workload, o options) []passKind {
	switch {
	case !o.traced:
		return []passKind{untraced}
	case w.ladder:
		return []passKind{untraced, traced, oneWorker}
	}
	return []passKind{untraced, traced}
}

// check compares a pass with the reference pass and returns how many of
// its ops belong to cells whose digest did not repeat.
func check(ref, got passResult) int64 {
	var bad int64
	for i, c := range got.cells {
		if i >= len(ref.cells) || ref.cells[i] != c {
			bad += c.ops
		}
	}
	return bad
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// quartiles returns the first quartile, median and third quartile of
// xs (each quartile the median of its half).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return [3]float64{median(s[:(n+1)/2]), median(s), median(s[n/2:])}
}

// measure runs one workload: set-up, reference pass, timed passes.
func measure(w *workload, o options) (*report, error) {
	rep := &report{metrics: map[string]metric{}}

	// Set-up, several times: the first build also pays every first-use
	// cost (template pools, first machine.New), so timed passes start
	// warm. setup_s is the median build; the first one's cost is
	// reported on its own as setup.first_use_s.
	var builds []float64
	for i := 0; i < o.sc.builds; i++ {
		// Every build starts from a collected heap, as Go's own
		// benchmarks do, so it reuses freed pages instead of faulting in
		// fresh ones whenever the collector happens not to have run.
		runtime.GC()
		t := time.Now()
		if err := w.build(o, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		builds = append(builds, time.Since(t).Seconds())
	}
	firstUse, setup := builds[0], median(builds)

	// Reference pass: untimed, at one worker. Every timed pass must
	// reproduce its digests, which also pins 1-worker == 2-worker.
	ref, err := w.pass(o, nil, 1)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	rep.attempted += ref.ops
	rep.failed += ref.failed

	var tr *tracer
	if o.traced {
		tr = newTracer()
		rep.tracer = tr
	}
	cycle := kinds(w, o)
	rates := map[passKind][]float64{}
	passTimes := map[passKind][]float64{}
	var timedOps int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var liveMiB []float64
	start := time.Now()
	for i := 0; i < minPasses*len(cycle) || time.Since(start).Seconds() < o.seconds; i++ {
		kind := cycle[i%len(cycle)]
		var ptr *tracer
		workers := maxWorkers
		switch kind {
		case traced:
			ptr = tr
		case oneWorker:
			workers = 1
		}
		t := time.Now()
		pr, err := w.pass(o, ptr, workers)
		dt := time.Since(t).Seconds()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		rep.passes++
		rep.attempted += pr.ops
		rep.failed += pr.failed + check(ref, pr)
		timedOps += pr.ops
		rates[kind] = append(rates[kind], float64(pr.ops)/dt)
		passTimes[kind] = append(passTimes[kind], dt)
		metrics.Read(live)
		liveMiB = append(liveMiB, float64(live[0].Value.Uint64())/(1<<20))
	}
	runtime.ReadMemStats(&ms1)
	rep.rates = rates[untraced]

	put := func(name string, v float64) { rep.metrics[name] = metric{value: v} }
	if !o.traced {
		put("setup_s", setup)
		put("ops_per_s", median(rates[untraced]))
		put("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(timedOps))
		// The peak heap is the 90th percentile, over timed passes, of
		// the live heap the collector last marked: a pass whose
		// collection happened to land on an unusual instant moves it
		// no more than one sample.
		put("peak_heap_mb", quantile(liveMiB, 0.9))
		for name, m := range ref.sim {
			rep.metrics[name] = m
		}
		// The other workloads' simulated metrics: one untimed pass each.
		// They are exact functions of the seed, so every run reports the
		// whole model's end-to-end figures.
		for _, ow := range order {
			if ow == w {
				continue
			}
			pr, err := ow.pass(o, nil, maxWorkers)
			if err != nil {
				return nil, fmt.Errorf("%s model pass: %w", ow.name, err)
			}
			rep.attempted += pr.ops
			rep.failed += pr.failed
			for name, m := range pr.sim {
				rep.metrics[name] = m
			}
		}
		return rep, nil
	}

	for name, v := range w.layers(ref, tr, len(rates[traced])) {
		put(name, v)
	}
	put("setup.first_use_s", firstUse)
	put("fail_ratio", float64(rep.failed)/float64(rep.attempted))
	un, trd := median(rates[untraced]), median(rates[traced])
	put("trace.ops_per_s_untraced", un)
	put("trace.ops_per_s_traced", trd)
	put("trace.overhead_ratio", un/trd)
	if w.ladder {
		put("par.speedup_2w", median(passTimes[oneWorker])/median(passTimes[untraced]))
	}
	// Every per-layer metric appears in every workload's result; a layer
	// the workload never reaches reads 0.
	for _, l := range layerMetrics {
		if _, ok := rep.metrics[l.name]; !ok {
			put(l.name, 0)
		}
	}
	return rep, nil
}
