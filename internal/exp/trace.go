package exp

// Shared trace-export support for the cmd/ tools. Every tool takes a
// -trace-out flag (tools.go): when set, the tool runs a small traced
// scenario on the obs spine and writes a Chrome/Perfetto trace_event
// JSON document there ("-" means stdout). The document loads directly
// in ui.perfetto.dev.
//
// The default scenario is one Table-1 initiation world per method —
// four process rows whose tracks show the syscall spans, uncached bus
// transactions, DMA bus-mastering windows and scheduler events each
// initiation style generates. faultsim's -replay writes a cluster-wide
// trace of one faultsearch seed instead (FaultReplay).
//
// Everything here is simulated-deterministic: the same invocation
// produces byte-identical documents at any -procs value (the scenario
// worlds are serial), which is what lets a trace be pinned as a golden
// file (TestTraceGolden).

import (
	"fmt"
	"io"
	"os"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
)

// defaultTraceCap is -trace-cap's default.
const defaultTraceCap = 1 << 16

// The -trace-out and -trace-cap values, which Bind records.
var (
	traceOut string
	traceCap = defaultTraceCap
)

// flushTrace runs the traced scenario and writes the Perfetto document
// to the -trace-out destination. It is a no-op when -trace-out was not
// given; Finish calls it on a tool's success path.
func flushTrace() error {
	if traceOut == "" {
		return nil
	}
	procs, err := defaultTraceScenario()
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return writeTraceTo(traceOut, procs)
}

// writeTraceTo renders procs as a Perfetto document at dest ("-" or ""
// means stdout).
func writeTraceTo(dest string, procs []obs.PerfettoProcess) error {
	var w io.Writer = os.Stdout
	if dest != "-" && dest != "" {
		f, err := os.Create(dest)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := obs.WritePerfetto(w, procs); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// defaultTraceScenario traces one small initiation burst per Table-1
// method: each method's world becomes one Perfetto process row, so the
// four initiation styles can be compared track by track.
func defaultTraceScenario() ([]obs.PerfettoProcess, error) {
	var out []obs.PerfettoProcess
	for i, method := range userdma.Methods() {
		p, err := tracedInitiations(method, i)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", method.Name(), err)
		}
		out = append(out, p)
	}
	return out, nil
}

// tracedInitiations builds method's calibrated world with the trace
// spine enabled, runs four 64-byte DMAs, and returns the world's event
// stream as one Perfetto process.
func tracedInitiations(method userdma.Method, pid int) (obs.PerfettoProcess, error) {
	m := userdma.Machine(method)
	tr := m.EnableTrace(traceCap, obs.Ring)
	if err := dmaBurst(m, method, "init", 4); err != nil {
		return obs.PerfettoProcess{}, err
	}
	return obs.PerfettoProcess{PID: pid, Name: method.Name(), Events: tr.Events()}, nil
}

// FaultReplay rebuilds the faultsearch world for one seed — the same
// loopback cluster, fault plan and reliable channel the bounded search
// model-checks — with cluster-wide tracing enabled, runs it to
// completion under the search's finish policy, and writes the Perfetto
// document to the -trace-out destination (stdout when unset). The
// returned verdict re-states the search's delivery check for this
// straight-line run.
func FaultReplay(seed uint64, total int) (verdict string, err error) {
	cluster, world, err := faultSearchWorld(seed, total)
	if err != nil {
		return "", err
	}
	tr := cluster.EnableTrace(traceCap, obs.Ring)
	if err := cluster.RunRoundRobin(8, 1<<62); err != nil {
		return "", err
	}
	cluster.Settle()
	verdict = "exactly-once, in order"
	if err := world.Check(); err != nil {
		verdict = "VIOLATION: " + err.Error()
	}
	procs := []obs.PerfettoProcess{{
		PID:    int(seed),
		Name:   fmt.Sprintf("faultsearch seed=%d plan=%+v", seed, FaultPlanForSeed(seed).Default),
		Events: tr.Events(),
	}}
	return verdict, writeTraceTo(traceOut, procs)
}
