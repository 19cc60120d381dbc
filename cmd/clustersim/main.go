// Command clustersim runs the paper's motivating workload — message
// passing on a Network of Workstations — end to end: node 0 sends
// messages into node 1's memory (payload by DMA, flag by remote write),
// node 1 polls and acknowledges. It reports per-message latency for
// each initiation method, showing where OS-initiated DMA stops making
// sense as links get faster (§1, §2.2).
//
// The measurement is the "clustersim" experiment in the internal/exp
// registry: one independent two-node cluster world per initiation
// method, fanned out on -procs worker goroutines with byte-identical
// output for any worker count. -json emits the table as raw simulated
// picoseconds.
//
// -scale switches to the "scale" experiment instead: a 1000-node-class
// NOW on the sharded parallel engine (net.ShardedCluster), driven by an
// open-loop multi-tenant user-level DMA RPC generator. -nodes, -shards,
// -arrival, -tenants, -bytes and -ms size the world; -procs becomes the
// INTRA-world shard worker count (output is byte-identical for every
// value). -bench additionally times the same world at shards {1,4,8}
// on this host's wall clock and reports host events/sec — the one
// deliberately non-reproducible section (cmd/benchdiff treats those
// leaves as informational).
//
// -scale -protocol upgrades the abstract RPC model to the
// "scalemachine" experiment: every node becomes a FULL machine.Machine
// and each RPC runs the named initiation protocol's real sequence —
// kernel, extshadow, keybased, repeated, or "all" for the whole Table-1
// line-up (one world per protocol). With -bench, the host-timed shard
// ladder runs per protocol.
//
// Every flag is declared once, with its range and relations, in
// internal/exp's flag table (tools.go); a value out of range, or a flag
// the chosen mode would ignore, exits 2 before anything runs.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"uldma/internal/exp"
	"uldma/internal/sim"
)

func main() {
	fs := exp.Bind("clustersim")
	procs, jsonOut := fs.Int("procs"), fs.Bool("json")
	if !fs.Bool("scale") {
		fs.Finish(run(fs.Int("msgs"), fs.Uint("size"), !fs.Bool("gigabit"), fs.Bool("hist"), procs, jsonOut))
		return
	}
	p := exp.Params{
		Nodes: fs.Int("nodes"), Shards: fs.Int("shards"), Arrival: fs.Int("arrival"), Tenants: fs.Int("tenants"),
		ScaleBytes: fs.Uint("bytes"), ScaleDur: sim.Time(fs.Int("ms")) * sim.Millisecond,
		ScaleSeed: fs.Uint("seed"), Procs: procs, Protocol: fs.Str("protocol"),
	}
	if err := exp.ValidScale(p); err != nil {
		exp.Fail("clustersim", 2, err)
	}
	fs.Finish(runScale(p, jsonOut, fs.Bool("bench")))
}

// clusterJSON is the -json document.
type clusterJSON struct {
	Link    string
	Msgs    int
	MsgSize uint64
	Rows    []exp.ClusterRow
}

// scaleJSON is the -scale -json document. Scale holds the configured
// run; Bench (with -bench) holds the host-timed shard ladder. With
// -protocol the machine-world sections are populated instead — a
// separate pair of keys so the flat scale wire format never shifts.
type scaleJSON struct {
	Scale        []exp.ScalePoint        `json:",omitempty"`
	Bench        []exp.ScalePoint        `json:",omitempty"`
	ScaleMachine []exp.ScaleMachinePoint `json:",omitempty"`
	BenchMachine []exp.ScaleMachinePoint `json:",omitempty"`
}

func run(msgs int, size uint64, atm, hist bool, procs int, jsonOut bool) error {
	p := exp.Params{Msgs: msgs, MsgSize: size, ATM: atm, Hist: hist, Procs: procs}
	r, err := exp.RunNamed("clustersim", p)
	if err != nil {
		return err
	}
	if jsonOut {
		link := "Gigabit"
		if atm {
			link = "ATM-155"
		}
		doc := clusterJSON{Link: link, Msgs: msgs, MsgSize: size, Rows: exp.ClusterRows(r)}
		return exp.WriteJSON(os.Stdout, doc)
	}
	s, err := exp.RenderNamed("clustersim", exp.Text, r, p)
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func runScale(p exp.Params, jsonOut, bench bool) error {
	name := "scale"
	if p.Protocol != "" {
		name = "scalemachine"
	}
	r, err := exp.RunNamed(name, p)
	if err != nil {
		return err
	}
	if !jsonOut && !bench {
		s, err := exp.RenderNamed(name, exp.Text, r, p)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	}
	doc := scaleJSON{Scale: exp.Collect[exp.ScalePoint](r), ScaleMachine: exp.Collect[exp.ScaleMachinePoint](r)}
	if bench {
		if doc.Bench, doc.BenchMachine, err = benchScale(name, p); err != nil {
			return err
		}
	}
	return exp.WriteJSON(os.Stdout, doc)
}

// benchScale times the SAME world at shards {1,4,8} (skipping counts
// above -nodes) with workers = shard count, once per selected protocol
// for the machine world, and stamps each row with this host's wall
// time, events/sec and core count. The simulated results are
// byte-identical down each ladder; only the Host* fields vary, and they
// vary with the machine: events/sec scales with shard count only up to
// the host's core count (HostCPUs records it).
func benchScale(name string, p exp.Params) (flat []exp.ScalePoint, hosted []exp.ScaleMachinePoint, err error) {
	protocols := []string{""} // the flat world has no protocol axis
	if p.Protocol != "" {
		if protocols, err = exp.ScaleProtocolNames(p.Protocol); err != nil {
			return nil, nil, err
		}
	}
	for _, protocol := range protocols {
		for _, shards := range []int{1, 4, 8} {
			if shards > p.Nodes {
				continue
			}
			bp := p
			bp.Shards, bp.Procs, bp.Protocol = shards, shards, protocol
			start := time.Now()
			r, err := exp.RunNamed(name, bp)
			if err != nil {
				return nil, nil, err
			}
			wall := time.Since(start)
			for _, pt := range exp.Collect[exp.ScalePoint](r) {
				stampHost(&pt, wall)
				flat = append(flat, pt)
			}
			for _, pt := range exp.Collect[exp.ScaleMachinePoint](r) {
				stampHost(&pt.ScalePoint, wall)
				hosted = append(hosted, pt)
			}
		}
	}
	return flat, hosted, nil
}

// stampHost records this host's wall time, events/sec and core count
// for a run that took wall.
func stampHost(pt *exp.ScalePoint, wall time.Duration) {
	pt.Host.HostNs = wall.Nanoseconds()
	if wall > 0 {
		pt.Host.HostEventsPerSec = float64(pt.Events) / wall.Seconds()
	}
	pt.Host.HostCPUs = runtime.NumCPU()
}
