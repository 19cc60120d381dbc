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
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"uldma/internal/exp"
	"uldma/internal/sim"
)

func main() {
	msgs := flag.Int("msgs", 50, "messages per method")
	size := flag.Uint64("size", 256, "message payload bytes")
	gigabit := flag.Bool("gigabit", true, "use the Gigabit link preset (else ATM-155)")
	hist := flag.Bool("hist", false, "print per-method latency histograms")
	procs := flag.Int("procs", 0, "worker goroutines (cell fan-out; with -scale: intra-world shard workers; 0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as one JSON document (raw simulated picoseconds)")
	list := flag.Bool("list", false, "list the registered experiments and exit")

	scale := flag.Bool("scale", false, "run the sharded NOW scale experiment instead of the two-node comparison")
	nodes := flag.Int("nodes", 32, "scale: cluster size (>= 2)")
	shards := flag.Int("shards", 4, "scale: shard count (1..nodes)")
	arrival := flag.Int("arrival", 20000, "scale: per-node RPC arrival rate, RPCs/s (> 0)")
	tenants := flag.Int("tenants", 2, "scale: arrival streams per node (> 0)")
	bytes := flag.Uint64("bytes", 64, "scale: request payload bytes")
	ms := flag.Int("ms", 2, "scale: arrival-window length, simulated milliseconds (> 0)")
	seed := flag.Uint64("seed", 1, "scale: world seed")
	bench := flag.Bool("bench", false, "scale: time the world at shards {1,4,8} and report host events/sec (JSON)")
	protocol := flag.String("protocol", "", "scale: run FULL machines with this initiation protocol (kernel, extshadow, keybased, repeated, all)")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("clustersim", 2, err)
	}
	defer stop()
	if *list {
		fmt.Print(exp.List())
		return
	}
	if *scale {
		// -ms in picoseconds; a window the clock cannot hold wraps, so
		// it is refused before the conversion.
		if *ms > int(math.MaxInt64/sim.Millisecond) {
			exp.Fail("clustersim", 2, fmt.Errorf("-ms %d: the arrival window overflows the picosecond clock", *ms))
		}
		p := exp.Params{
			Nodes: *nodes, Shards: *shards, Arrival: *arrival, Tenants: *tenants,
			ScaleBytes: *bytes, ScaleDur: sim.Time(*ms) * sim.Millisecond,
			ScaleSeed: *seed, Procs: *procs, Protocol: *protocol,
		}
		if err := exp.ValidScale(p); err != nil {
			exp.Fail("clustersim", 2, err)
		}
		if err := runScale(p, *jsonOut, *bench); err != nil {
			exp.Fail("clustersim", 1, err)
		}
	} else if *protocol != "" {
		exp.Fail("clustersim", 2, errors.New("-protocol selects the machine-world scale experiment and needs -scale"))
	} else if err := run(*msgs, *size, !*gigabit, *hist, *procs, *jsonOut); err != nil {
		exp.Fail("clustersim", 1, err)
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("clustersim", 1, err)
	}
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
