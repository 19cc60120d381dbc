// Command dmabench regenerates the paper's Table 1 — "Comparison of DMA
// initiation algorithms" — on the calibrated Alpha 3000/300 +
// TurboChannel machine model, and optionally the bus-frequency sweep
// (experiment X4) and the register-context contention study.
//
// Usage:
//
//	dmabench [-iters N] [-sweep] [-contention] [-comparators] [-ring] [-ringchurn] [-va [-tlb E]] [-paging] [-trace | -json [-metrics]] [-procs W]
//
// The default -iters 1000 matches the paper's measurement loop. Every
// section is one experiment from the internal/exp registry (-list
// enumerates them); independent measurement cells (one simulated
// machine each) run on -procs worker goroutines (default: GOMAXPROCS)
// with byte-identical output for any worker count. -json emits the raw
// numbers (simulated picoseconds) as one JSON document for snapshotting
// and regression comparison.
//
// Every flag is declared once, with its range and relations, in
// internal/exp's flag table (tools.go); a value out of range, or a flag
// the chosen mode would ignore, exits 2 before anything runs.
package main

import (
	"fmt"
	"os"

	"uldma/internal/exp"
)

func main() {
	fs := exp.Bind("dmabench")
	iters := fs.Int("iters")

	// One list in print order, each section under the flag that adds
	// it ("" = always); each format keeps the sections it can print
	// (the overview is text-only).
	var names []string
	for _, sec := range [][2]string{
		{"trend", "trend"}, {"trace", "bustrace"}, {"", "overview"}, {"", "table1"},
		{"comparators", "comparators"}, {"sweep", "bussweep"}, {"breakeven", "breakeven"},
		{"contention", "contention"}, {"ring", "ringdepth"}, {"ringchurn", "ringchurn"},
		{"va", "vasweep"}, {"paging", "paging"}, {"metrics", "metrics"},
	} {
		if sec[0] == "" || fs.Bool(sec[0]) {
			names = append(names, sec[1])
		}
	}
	secs := exp.BenchSections(exp.Params{Iters: iters, Procs: fs.Int("procs"), TLB: fs.Int("tlb")}, names...)
	fs.Finish(run(secs, iters, fs.Bool("json")))
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
