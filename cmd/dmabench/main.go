// Command dmabench regenerates the paper's Table 1 — "Comparison of DMA
// initiation algorithms" — on the calibrated Alpha 3000/300 +
// TurboChannel machine model, and optionally the bus-frequency sweep
// (experiment X4) and the register-context contention study.
//
// Usage:
//
//	dmabench [-iters N] [-sweep] [-contention] [-comparators] [-ring] [-ringchurn] [-va [-tlb E]] [-paging] [-steer] [-procs W] [-json]
//
// The default -iters 1000 matches the paper's measurement loop. Every
// section is one experiment from the internal/exp registry (-list
// enumerates them); independent measurement cells (one simulated
// machine each) run on -procs worker goroutines (default: GOMAXPROCS)
// with byte-identical output for any worker count. -json emits the raw
// numbers (simulated picoseconds) as one JSON document for snapshotting
// and regression comparison.
package main

import (
	"flag"
	"fmt"
	"os"

	"uldma/internal/exp"
)

func main() {
	iters := flag.Int("iters", 1000, "DMA initiations per method (paper: 1000)")
	sweep := flag.Bool("sweep", false, "also run the bus-frequency sweep (X4)")
	contention := flag.Bool("contention", false, "also run the register-context contention study")
	comparators := flag.Bool("comparators", false, "also measure the comparator methods (SHRIMP, FLASH, PAL)")
	breakeven := flag.Bool("breakeven", false, "also run the initiation-vs-transfer break-even sweep (X6)")
	ring := flag.Bool("ring", false, "also run the descriptor-ring depth sweep (batched initiation)")
	ringchurn := flag.Bool("ringchurn", false, "also run the register-context churn study (ring processes vs contexts)")
	va := flag.Bool("va", false, "also run the virtual-address sweep (Table 1 through the IOMMU + IOTLB hit rate)")
	paging := flag.Bool("paging", false, "also run the device-paging study (recovery policies under oversubscription)")
	steer := flag.Bool("steer", false, "also run the steered sweeps (adaptive search replacing the exhaustive grids)")
	tlb := flag.Int("tlb", 0, "with -va: IOTLB entries for the hit-rate sweep (0 = 8)")
	traceFlag := flag.Bool("trace", false, "show the bus transactions of one initiation per method")
	trend := flag.Bool("trend", false, "also run the hardware-generation trend sweep (X7)")
	metrics := flag.Bool("metrics", false, "with -json: append the per-method observability registry snapshot (exact event counts)")
	procs := flag.Int("procs", 0, "worker goroutines for independent measurement cells (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("dmabench", 2, err)
	}
	defer stop()

	if *list {
		fmt.Print(exp.List())
		return
	}

	// Counts are validated before any simulation spins up, same
	// contract as clustersim's -scale frontend: nonsense dies with exit
	// status 2 and a flag-level message.
	if err := validate(*iters, *tlb, *va); err != nil {
		exp.Fail("dmabench", 2, err)
	}

	// With -steer the traced scenario becomes the search itself: the
	// decision track (probe/split/abort/accept) on a Perfetto timeline.
	if *steer && exp.TraceRequested() {
		exp.SetTraceScenario(exp.SteerTraceScenario)
	}

	// One list in print order; each format keeps the sections it can
	// print (the overview and -trace are text-only, -metrics JSON-only).
	var names []string
	for _, sec := range []struct {
		on   bool
		name string
	}{
		{*trend, "trend"}, {*traceFlag, "bustrace"}, {true, "overview"}, {true, "table1"},
		{*comparators, "comparators"}, {*sweep, "bussweep"}, {*breakeven, "breakeven"},
		{*contention, "contention"}, {*ring, "ringdepth"}, {*ringchurn, "ringchurn"},
		{*va, "vasweep"}, {*paging, "paging"}, {*steer, "steer"}, {*metrics, "metrics"},
	} {
		if sec.on {
			names = append(names, sec.name)
		}
	}
	secs := exp.BenchSections(exp.Params{Iters: *iters, Procs: *procs, TLB: *tlb}, names...)
	if err := run(secs, *iters, *jsonOut); err != nil {
		exp.Fail("dmabench", 1, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("dmabench", 1, err)
	}
}

// validate rejects flag values no section can run, before any machine
// is built.
func validate(iters, tlb int, va bool) error {
	if iters < 1 {
		return fmt.Errorf("-iters %d: need at least one initiation per measurement", iters)
	}
	if tlb < 0 {
		return fmt.Errorf("-tlb %d: the IOTLB needs at least one entry", tlb)
	}
	if tlb != 0 && !va {
		return fmt.Errorf("-tlb sizes the vasweep IOTLB and needs -va")
	}
	return nil
}

// run prints the sections that support the chosen format: each text
// rendering in order, or one JSON document.
func run(secs []exp.Section, iters int, jsonOut bool) error {
	f := exp.Text
	if jsonOut {
		f = exp.JSON
	}
	var keep []exp.Section
	for _, s := range secs {
		if e, _ := exp.Lookup(s.Name); e.Supports(f) {
			keep = append(keep, s)
		}
	}
	if jsonOut {
		doc, err := exp.Document(iters, keep)
		if err != nil {
			return err
		}
		return exp.WriteJSON(os.Stdout, doc)
	}
	for _, s := range keep {
		out, err := exp.Report(s.Name, f, s.Params)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}
