// Command oslat is an lmbench-style microbenchmark of the simulated
// operating system: null-syscall latency, context-switch cost, and the
// kernel DMA path broken into its Figure 1 components. It validates the
// §2.2 premise ("the overhead of an empty system call ... ranges
// between 1,000 and 5,000 processor cycles") on the model.
//
// The measurement is the "oslat" experiment in the internal/exp
// registry: three independent simulated worlds that fan out on -procs
// worker goroutines with byte-identical output for any worker count.
// -json emits the table as raw simulated picoseconds.
package main

import (
	"flag"
	"fmt"
	"os"

	"uldma/internal/exp"
)

func main() {
	iters := flag.Int("iters", 10_000, "iterations per microbenchmark")
	steer := flag.Bool("steer", false, "converge the iteration count on a steered ladder instead of paying -iters up front")
	procs := flag.Int("procs", 0, "worker goroutines for independent benchmark worlds (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("oslat", 2, err)
	}
	defer stop()
	if *list {
		fmt.Print(exp.List())
		return
	}
	// The PAL-call and uncached-load rows run -iters/10 iterations, so
	// below 10 they would report measurements never made. Reject before
	// any world is built, like dmabench's and clustersim's flag checks.
	// -steer ignores -iters: its ladder starts at 250.
	if !*steer && *iters < 10 {
		exp.Fail("oslat", 2, fmt.Errorf("-iters %d: need at least 10 (the PAL-call and uncached-load rows run -iters/10 times)", *iters))
	}
	// The steered climb's decision log is text only, so -json cannot
	// combine with it (as dmabench refuses -tlb without -va).
	if *steer && *jsonOut {
		exp.Fail("oslat", 2, fmt.Errorf("-json cannot combine with -steer (its decision log is text only)"))
	}
	if *steer {
		if err := runSteered(*procs); err != nil {
			exp.Fail("oslat", 1, err)
		}
	} else if err := run(*iters, *procs, *jsonOut); err != nil {
		exp.Fail("oslat", 1, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("oslat", 1, err)
	}
}

// oslatJSON is the -json document.
type oslatJSON struct {
	Machine string
	Iters   int
	Rows    []exp.OSLatRow
}

// runSteered climbs the convergence ladder instead of running the full
// microbenchmark grid: rungs of increasing iteration counts, stopped
// at the first whose null-syscall mean is stable, then the standard
// table at the converged count. The decision trace shows the climb.
func runSteered(procs int) error {
	res, pol, err := exp.SteeredOSLat(exp.Params{Procs: procs}, nil)
	if err != nil {
		return err
	}
	iters, _ := pol.Converged()
	fmt.Printf("Steered oslat — converged at %d iterations (probed %d of %d rungs):\n",
		iters, res.Probed(), res.GridCells)
	fmt.Print(res.Log.Render())
	fmt.Println()
	return run(iters, procs, false)
}

func run(iters, procs int, jsonOut bool) error {
	p := exp.Params{Iters: iters, Procs: procs}
	r, err := exp.RunNamed("oslat", p)
	if err != nil {
		return err
	}
	if jsonOut {
		doc := oslatJSON{Machine: exp.MachineName(), Iters: iters, Rows: exp.OSLatRows(r)}
		return exp.WriteJSON(os.Stdout, doc)
	}
	s, err := exp.RenderNamed("oslat", exp.Text, r, p)
	if err != nil {
		return err
	}
	fmt.Print(s)
	if !exp.OSLatInBand(r) {
		return fmt.Errorf("null syscall out of the lmbench band")
	}
	return nil
}
