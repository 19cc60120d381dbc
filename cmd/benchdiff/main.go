// Command benchdiff compares two performance-trajectory snapshots (the
// JSON documents cmd/dmabench and cmd/report emit with -json, raw
// simulated picoseconds) and reports every numeric leaf that changed.
//
//	benchdiff [-tol 0.5] [-fatal] [-fatal-threshold PCT] baseline.json current.json
//	benchdiff [-iters N] [-procs W] [-fatal]   # regenerate vs BENCH_baseline.json
//
// With one or zero file arguments the current document is regenerated
// in-process with the same sections `make baseline` snapshots (Table 1,
// comparators, bus sweep, break-even, trend). The diff is structural:
// arrays of measurement rows are keyed by their Method/Size fields when
// present, so a changed row reads as "Table1[Key-based DMA].MeanPs"
// rather than an index.
//
// Because every value is exact simulated time, ANY delta means the
// model's behaviour changed — there is no host noise to tolerate. The
// default exit status is 0 regardless (make ci runs benchdiff as a
// non-fatal report; an intentional model change is committed via `make
// baseline`); -fatal makes deltas beyond -tol percent fail the run
// (exit 2), and -fatal-threshold PCT gives CI an opt-in regression
// gate: exit 1 when any MODEL leaf moves by at least PCT percent,
// independent of what -tol prints.
// Leaves present on only one side — a new experiment in the current
// document, or a section retired from it — are listed as added/removed
// and are never fatal: growing or pruning the benchmark surface is a
// deliberate act, not a regression. Leaves whose final key starts with
// "Host" (HostNs, HostEventsPerSec, HostCPUs — the wall-clock shard
// ladder from `clustersim -scale -bench`) are informational: printed
// when they move, never flagged, never fatal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"uldma/internal/exp"
)

// errRegression marks a -fatal-threshold failure: the diff itself ran
// fine, but model leaves moved beyond the configured ceiling. main
// maps it to exit status 1 (a CI-regression verdict) rather than the
// exit-2 usage/IO failures.
var errRegression = errors.New("regression threshold exceeded")

func main() {
	iters := flag.Int("iters", 1000, "initiations per measurement when regenerating")
	procs := flag.Int("procs", 0, "worker goroutines when regenerating (0 = GOMAXPROCS)")
	tol := flag.Float64("tol", 0, "percent delta beyond which a leaf is flagged")
	fatal := flag.Bool("fatal", false, "exit 1 when any leaf is flagged")
	fatalThreshold := flag.Float64("fatal-threshold", -1,
		"exit 1 when any model leaf moves by at least this percent (Host* leaves stay exempt; negative = off)")
	flag.Parse()

	// The regeneration count is checked before any world is built.
	if *iters < 1 {
		exp.Fail("benchdiff", 2, fmt.Errorf("-iters %d: need at least one initiation per measurement", *iters))
	}
	if err := run(flag.Args(), *iters, *procs, *tol, *fatal, *fatalThreshold); err != nil {
		code := 2
		if errors.Is(err, errRegression) {
			code = 1
		}
		exp.Fail("benchdiff", code, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("benchdiff", 2, err)
	}
}

func run(args []string, iters, procs int, tol float64, fatal bool, fatalThreshold float64) error {
	basePath := "BENCH_baseline.json"
	var base, cur map[string]any
	switch len(args) {
	case 2:
		basePath = args[0]
		if err := load(args[0], &base); err != nil {
			return err
		}
		if err := load(args[1], &cur); err != nil {
			return err
		}
	case 1, 0:
		if len(args) == 1 {
			basePath = args[0]
		}
		if err := load(basePath, &base); err != nil {
			return err
		}
		var err error
		if cur, err = regenerate(iters, procs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("want at most two file arguments, got %d", len(args))
	}

	bleaves, cleaves := map[string]float64{}, map[string]float64{}
	flatten("", base, bleaves)
	flatten("", cur, cleaves)

	paths := map[string]bool{}
	for p := range bleaves {
		paths[p] = true
	}
	for p := range cleaves {
		paths[p] = true
	}
	ordered := make([]string, 0, len(paths))
	for p := range paths {
		ordered = append(ordered, p)
	}
	sort.Strings(ordered)

	flagged, same, added, removed, host, regressed := 0, 0, 0, 0, 0, 0
	for _, p := range ordered {
		b, inB := bleaves[p]
		c, inC := cleaves[p]
		switch {
		case hostLeaf(p):
			// Host-clock leaves (HostNs, HostEventsPerSec, HostCPUs from
			// `clustersim -scale -bench`) measure THIS machine, not the
			// model: they move with load, governor state and core count.
			// Reported for the record, never flagged, never fatal.
			switch {
			case inB && inC && b != c:
				fmt.Printf("i %-60s %15.0f -> %15.0f  (host clock, informational)\n", p, b, c)
			case inB != inC:
				fmt.Printf("i %-60s %15.0f (host clock, one side only)\n", p, c+b)
			}
			host++
		case !inB:
			// A leaf only the current document has: a new experiment or
			// column, not a regression. Reported, never fatal.
			fmt.Printf("+ %-60s %15.0f (added)\n", p, c)
			added++
		case !inC:
			// A leaf only the baseline has: a retired section. Reported,
			// never fatal — retiring data is a deliberate act.
			fmt.Printf("- %-60s %15.0f (removed)\n", p, b)
			removed++
		case b != c:
			pct := math.Inf(1)
			if b != 0 {
				pct = (c - b) / b * 100
			}
			if math.Abs(pct) >= tol {
				fmt.Printf("~ %-60s %15.0f -> %15.0f  (%+.2f%%)\n", p, b, c, pct)
				flagged++
			} else {
				same++
			}
			// The CI regression gate is independent of -tol's print
			// filter: a leaf can regress past the ceiling even when
			// -tol keeps it out of the listing.
			if fatalThreshold >= 0 && math.Abs(pct) >= fatalThreshold {
				regressed++
			}
		default:
			same++
		}
	}
	fmt.Printf("benchdiff vs %s: %d leaves compared, %d flagged, %d unchanged, %d added, %d removed, %d host-clock\n",
		basePath, len(ordered), flagged, same, added, removed, host)
	if flagged > 0 && fatal {
		return fmt.Errorf("%d leaves differ", flagged)
	}
	if regressed > 0 {
		return fmt.Errorf("%w: %d model leaves moved by >= %.2f%%", errRegression, regressed, fatalThreshold)
	}
	return nil
}

// hostLeaf reports whether a dotted path names a host-wall-clock leaf:
// its final key segment starts with "Host". Those come from the -bench
// shard ladder and are the one deliberately machine-dependent section
// of any snapshot.
func hostLeaf(path string) bool {
	last := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' || path[i] == ']' {
			last = path[i+1:]
			break
		}
	}
	return len(last) >= 4 && last[:4] == "Host"
}

func load(path string, into *map[string]any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// baselineSections are the sections `make baseline` snapshots:
// dmabench -json -sweep -breakeven -trend -comparators -metrics.
var baselineSections = []string{"table1", "comparators", "bussweep", "breakeven", "trend", "metrics"}

// regenerate rebuilds the `make baseline` document in-process through
// the same call as dmabench -json, and round-trips it through JSON so
// both sides flatten identically.
func regenerate(iters, procs int) (map[string]any, error) {
	doc, err := exp.Document(iters, exp.BenchSections(exp.Params{Iters: iters, Procs: procs}, baselineSections...))
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// flatten walks a decoded JSON document and records every numeric leaf
// under a dotted path. Array elements that carry an identifying field
// (Method, Label, Size, Gen, Name — the last keys the observability
// registry's metric rows) are keyed by its value instead of their
// index, so reordering or insertion reads as what it is. A key that
// repeats within one array (ring rows share a Method across depths)
// carries its ordinal among the equal keys from the second on, so no
// row overwrites another.
func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		seen := map[string]int{}
		for i, child := range t {
			key := fmt.Sprintf("[%d]", i)
			if m, ok := child.(map[string]any); ok {
				for _, id := range []string{"Method", "Label", "Size", "Gen", "Name"} {
					switch idv := m[id].(type) {
					case string:
						key = "[" + idv + "]"
					case float64:
						key = fmt.Sprintf("[%s=%.0f]", id, idv)
					default:
						continue
					}
					break
				}
			}
			if seen[key]++; seen[key] > 1 {
				key = fmt.Sprintf("%s#%d]", key[:len(key)-1], seen[key])
			}
			flatten(prefix+key, child, out)
		}
	case float64:
		out[prefix] = t
	}
}
