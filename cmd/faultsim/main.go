// Command faultsim runs the fault-injection studies: the reliable
// user-level channel (internal/msg) driven over a fabric whose links
// drop, duplicate, reorder and jitter remote writes under a seeded,
// fully deterministic fault plane (internal/fault).
//
// Three experiments from the internal/exp registry:
//
//   - faultsweep: goodput and p50/p99 per-message latency across a
//     drop-rate × payload-size grid, with the recovery traffic the
//     plane forced (retransmissions, re-credits, fabric drops);
//   - recovery: how long after a link-down window heals until the
//     first payload lands again;
//   - faultsearch: a bounded model-checking hunt over scheduler
//     interleavings × seeded fault plans, asserting exactly-once
//     in-order delivery; a violation is reported with a replay line.
//
// Every cell owns its seeded world, so output is byte-identical for
// any -procs value. -json emits one document in raw simulated
// picoseconds for regression diffing (cmd/benchdiff).
//
// -replay SEED rebuilds the faultsearch world for one seed with
// cluster-wide tracing enabled, runs it straight-line under the
// search's finish policy, and writes a Perfetto trace_event document
// to -trace-out (stdout when unset) — the visual companion to a
// faultsearch verdict or violation line. It takes none of -msgs,
// -seeds, -depth or -json.
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
	fs := exp.Bind("faultsim")
	if seed := fs.Uint("replay"); seed != 0 {
		// The replay writes its own trace document; Finish would write
		// the default scenario's over it.
		verdict, err := exp.FaultReplay(seed, 3)
		if err != nil {
			exp.Fail("faultsim", 1, err)
		}
		fmt.Fprintf(os.Stderr, "faultsim: seed %d replayed: %s\n", seed, verdict)
		exp.Exit(0)
	}
	fs.Finish(run(fs.Int("msgs"), fs.Int("seeds"), fs.Int("depth"), fs.Int("procs"), fs.Bool("json")))
}

// faultJSON is the -json document.
type faultJSON struct {
	Msgs     int
	Sweep    []exp.FaultPoint
	Recovery []exp.RecoveryPoint
	Search   []exp.FaultSearchPoint
}

func run(msgs, seeds, depth, procs int, jsonOut bool) error {
	p := exp.Params{Msgs: msgs, Seeds: seeds, Slots: depth, Procs: procs}
	sweep, err := exp.RunNamed("faultsweep", p)
	if err != nil {
		return err
	}
	recov, err := exp.RunNamed("recovery", p)
	if err != nil {
		return err
	}
	search, err := exp.RunNamed("faultsearch", p)
	if err != nil {
		return err
	}
	if jsonOut {
		doc := faultJSON{
			Msgs:     msgs,
			Sweep:    exp.Collect[exp.FaultPoint](sweep),
			Recovery: exp.Collect[exp.RecoveryPoint](recov),
			Search:   exp.Collect[exp.FaultSearchPoint](search),
		}
		return exp.WriteJSON(os.Stdout, doc)
	}
	for _, sec := range []struct {
		name string
		r    *exp.Result
	}{{"faultsweep", sweep}, {"recovery", recov}, {"faultsearch", search}} {
		s, err := exp.RenderNamed(sec.name, exp.Text, sec.r, p)
		if err != nil {
			return err
		}
		fmt.Print(s)
		fmt.Println()
	}
	return nil
}
