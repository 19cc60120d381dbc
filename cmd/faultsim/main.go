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
// faultsearch verdict or violation line.
package main

import (
	"flag"
	"fmt"
	"os"

	"uldma/internal/exp"
)

func main() {
	msgs := flag.Int("msgs", 24, "messages per faultsweep cell")
	seeds := flag.Int("seeds", 4, "faultsearch: seeded fault plans to model-check")
	depth := flag.Int("depth", 4, "faultsearch: explicit scheduling decisions per schedule")
	replay := flag.Uint64("replay", 0, "rebuild the faultsearch world for this seed and write its cluster-wide Perfetto trace to -trace-out (stdout when unset)")
	procs := flag.Int("procs", 0, "worker goroutines for independent worlds (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("faultsim", 2, err)
	}
	defer stop()
	if *list {
		fmt.Print(exp.List())
		return
	}
	if *replay != 0 {
		verdict, err := exp.FaultReplay(*replay, 3)
		if err != nil {
			exp.Fail("faultsim", 1, err)
		}
		fmt.Fprintf(os.Stderr, "faultsim: seed %d replayed: %s\n", *replay, verdict)
		return
	}
	// -msgs sizes every faultsweep cell and heads the JSON document, so
	// it is checked before any world is built, like the search counts.
	if *msgs < 1 {
		exp.Fail("faultsim", 2, fmt.Errorf("-msgs %d: need at least one message per cell", *msgs))
	}
	exp.RequireNonNegative("faultsim", exp.Count{Flag: "-seeds", N: *seeds}, exp.Count{Flag: "-depth", N: *depth})
	if err := run(*msgs, *seeds, *depth, *procs, *jsonOut); err != nil {
		exp.Fail("faultsim", 1, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("faultsim", 1, err)
	}
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
