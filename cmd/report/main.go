// Command report regenerates every quantitative result in
// EXPERIMENTS.md in one run and emits them as markdown. Use it to
// re-verify the reproduction after any model change:
//
//	go run ./cmd/report > /tmp/results.md
//
// Every section is one experiment from the internal/exp registry (-list
// enumerates them); -only renders a chosen subset, in the order given,
// with the same per-section parameters as the full report. Independent
// measurement cells run on -procs worker goroutines (default:
// GOMAXPROCS) with byte-identical output for any worker count. -json
// emits the timing tables (or the -only sections) as one JSON document
// (raw simulated picoseconds) instead of markdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"uldma/internal/exp"
)

func main() {
	iters := flag.Int("iters", 1000, "initiations per timing measurement")
	seeds := flag.Int("seeds", 40, "random adversarial campaigns")
	ring := flag.Bool("ring", false, "also include the descriptor-ring sections (depth sweep + context churn)")
	va := flag.Bool("va", false, "also include the virtual-address DMA sections (vasweep + paging)")
	steer := flag.Bool("steer", false, "also include the steered-sweep section (adaptive search replacing the exhaustive grids)")
	only := flag.String("only", "", "render only these registry experiments (comma-separated names; unknown names exit 2)")
	procs := flag.Int("procs", 0, "worker goroutines for independent measurement cells (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit the timing tables as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("report", 2, err)
	}
	defer stop()
	if *list {
		fmt.Print(exp.List())
		return
	}

	// Every flag is validated BEFORE any simulation spins up: nonsense
	// dies with exit status 2 and a flag-level message, the same
	// contract dmabench's and clustersim's flags have.
	if *iters < 1 {
		exp.Fail("report", 2, fmt.Errorf("-iters %d: need at least one initiation per measurement", *iters))
	}
	names := defaultSections(*ring, *va, *steer)
	if *jsonOut {
		names = jsonSections
	}
	if *only != "" {
		if names, err = resolveOnly(*only, *jsonOut); err != nil {
			exp.Fail("report", 2, err)
		}
	}
	secs := make([]exp.Section, len(names))
	for i, name := range names {
		secs[i] = exp.Section{Name: name, Params: params(name, *iters, *seeds, *procs)}
	}
	if err := run(secs, *iters, *jsonOut, *only != ""); err != nil {
		exp.Fail("report", 1, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("report", 1, err)
	}
}

// defaultSections is the full report, in print order. The ring, VA
// and steered sections are opt-in so the default report stays
// byte-identical across versions that predate them.
func defaultSections(ring, va, steer bool) []string {
	names := []string{"table1", "comparators", "syscall", "bussweep", "breakeven", "contention"}
	if ring {
		names = append(names, "ringdepth", "ringchurn")
	}
	if va {
		names = append(names, "vasweep", "paging")
	}
	names = append(names, "atomics", "trend", "libraries", "attacks", "faultsweep", "recovery", "faultsearch")
	if steer {
		names = append(names, "steer")
	}
	return names
}

// jsonSections are the timing tables -json emits by default.
var jsonSections = []string{"table1", "bussweep", "breakeven", "trend", "faultsweep", "recovery"}

// params is the Params section name runs under, the same for the full
// report and for -only.
func params(name string, iters, seeds, procs int) exp.Params {
	switch name {
	case "trend":
		// The trend sweep has always run at a fifth of -iters, floored
		// at 10.
		return exp.Params{Iters: max(iters/5, 10), Procs: procs}
	case "faultsweep", "recovery", "faultsearch":
		// The fault studies at cmd/faultsim's default sizes.
		return exp.Params{Msgs: 24, Seeds: 4, Slots: 4, Procs: procs}
	}
	return exp.Params{Iters: iters, Seeds: seeds, Procs: procs}
}

// resolveOnly splits and validates -only's comma-separated experiment
// names against the registry: each must exist and print in the output
// format (JSON, or markdown with a text fallback). All names are
// checked before anything runs, so one typo cannot waste a
// half-finished report.
func resolveOnly(arg string, jsonOut bool) ([]string, error) {
	var names []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := exp.Lookup(name)
		switch {
		case !ok:
			return nil, fmt.Errorf("-only %s: unknown experiment %q (valid: %s)",
				arg, name, strings.Join(exp.Names(), ", "))
		case jsonOut && !e.Supports(exp.JSON):
			return nil, fmt.Errorf("-only %s: experiment %q has no %v section", arg, name, exp.JSON)
		case !jsonOut && !e.Supports(exp.Markdown) && !e.Supports(exp.Text):
			return nil, fmt.Errorf("-only %s: experiment %q has no %v or %v section", arg, name, exp.Markdown, exp.Text)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-only %s: no experiment names", arg)
	}
	return names, nil
}

// run prints the sections as one JSON document, or as markdown under
// the report header; an experiment without a markdown renderer (oslat,
// the cluster studies) prints its text under a heading of its name.
func run(secs []exp.Section, iters int, jsonOut, only bool) error {
	if jsonOut {
		doc, err := exp.Document(iters, secs)
		if err != nil {
			return err
		}
		return exp.WriteJSON(os.Stdout, doc)
	}
	fmt.Println("# Reproduction results (generated by cmd/report)")
	fmt.Printf("\nmachine: %s; %d initiations per measurement", exp.MachineName(), iters)
	if only {
		names := make([]string, len(secs))
		for i, s := range secs {
			names[i] = s.Name
		}
		fmt.Printf("; sections: %s", strings.Join(names, ", "))
	}
	fmt.Println(".")
	for _, s := range secs {
		f, heading := exp.Markdown, ""
		if e, _ := exp.Lookup(s.Name); !e.Supports(f) {
			f, heading = exp.Text, "\n## "+s.Name+"\n\n"
		}
		out, err := exp.Report(s.Name, f, s.Params)
		if err != nil {
			return err
		}
		fmt.Print(heading + out)
	}
	return nil
}
