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
	fs := exp.Bind("oslat")
	fs.Finish(run(fs.Int("iters"), fs.Int("procs"), fs.Bool("json")))
}

// oslatJSON is the -json document.
type oslatJSON struct {
	Machine string
	Iters   int
	Rows    []exp.OSLatRow
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
