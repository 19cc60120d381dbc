// Command perfbench is the repository's benchmark: it drives the
// simulator through three workloads (initiate, cluster_rpc, va_paging)
// from one process, measures host throughput and memory alongside the
// simulated-time results, checks every pass's output, and prints one
// JSON result line. See README.md for the workloads, the metrics and
// what each layer metric should move.
//
//	perfbench --workload initiate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics:
// timed passes alternate between untraced and traced, the traced ones
// wrap every call into the simulator in a span, and the untraced ones
// give the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxWorkers caps the host threads: the benchmark's load comes from one
// process on at most two cores.
const maxWorkers = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullScale))
}

func run(args []string, stdout, stderr io.Writer, sc scale) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: initiate, cluster_rpc or va_paging")
	seed := fs.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Float64("seconds", 10, "host seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "file for the traced run's spans (Chrome trace-event JSON); empty for none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	var names []string
	for _, ow := range order {
		if ow.name == *name {
			w = ow
		}
		names = append(names, ow.name)
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxWorkers {
		runtime.GOMAXPROCS(maxWorkers)
	}

	opts := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, sc: sc}
	rep, err := measure(w, opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if opts.traced && *traceOut != "" {
		if err := rep.tracer.writeFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	if err := printReport(stdout, w, opts, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// printReport writes one human-readable line per metric, then the
// result object as the last line.
func printReport(out io.Writer, w *workload, o options, rep *report) error {
	fmt.Fprintf(out, "workload %s  seed %d  passes %d  attempted %d  failed %d\n",
		w.name, o.seed, rep.passes, rep.attempted, rep.failed)
	if len(rep.rates) > 0 {
		q := quartiles(rep.rates)
		fmt.Fprintf(out, "  untraced pass rate (ops/s): q1 %.6g  median %.6g  q3 %.6g  over %d passes\n", q[0], q[1], q[2], len(rep.rates))
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, n := range names {
		m := rep.metrics[n]
		unit := unitOf(n)
		line := fmt.Sprintf("  %-34s %14.6g %s", n, m.value, unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintln(out, line)
		metrics[n] = value{m.value, unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
