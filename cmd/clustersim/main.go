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
	"encoding/json"
	"flag"
	"fmt"
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
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(2)
	}
	defer stop()
	if *list {
		fmt.Print(exp.List())
		return
	}
	if *scale {
		p := exp.Params{
			Nodes: *nodes, Shards: *shards, Arrival: *arrival, Tenants: *tenants,
			ScaleBytes: *bytes, ScaleDur: sim.Time(*ms) * sim.Millisecond,
			ScaleSeed: *seed, Procs: *procs, Protocol: *protocol,
		}
		if err := validateScale(*nodes, *shards, *arrival, *tenants, *ms, *protocol, *bytes); err != nil {
			fmt.Fprintln(os.Stderr, "clustersim:", err)
			exp.Exit(2)
		}
		if err := runScale(p, *jsonOut, *bench); err != nil {
			fmt.Fprintln(os.Stderr, "clustersim:", err)
			exp.Exit(1)
		}
	} else if *protocol != "" {
		fmt.Fprintln(os.Stderr, "clustersim: -protocol selects the machine-world scale experiment and needs -scale")
		exp.Exit(2)
	} else if err := run(*msgs, *size, !*gigabit, *hist, *procs, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		exp.Exit(1)
	}
	if err := exp.FlushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		exp.Exit(1)
	}
}

// validateScale rejects nonsense scale configurations up front with
// flag-level messages (the experiment validates again underneath).
func validateScale(nodes, shards, arrival, tenants, ms int, protocol string, bytes uint64) error {
	if err := exp.ValidProtocol(protocol); err != nil {
		return fmt.Errorf("-protocol %q: %w", protocol, err)
	}
	if protocol != "" {
		if err := exp.ValidScaleMachineWorld(nodes, bytes); err != nil {
			return fmt.Errorf("-protocol %s: %w", protocol, err)
		}
	}
	switch {
	case nodes < 2:
		return fmt.Errorf("-nodes %d: the scale workload needs at least 2 nodes", nodes)
	case shards < 1:
		return fmt.Errorf("-shards %d: need at least 1 shard", shards)
	case shards > nodes:
		return fmt.Errorf("-shards %d exceeds -nodes %d: a shard must own at least one node", shards, nodes)
	case arrival <= 0:
		return fmt.Errorf("-arrival %d: the RPC arrival rate must be positive", arrival)
	case tenants < 1:
		return fmt.Errorf("-tenants %d: need at least 1 tenant stream per node", tenants)
	case ms <= 0:
		return fmt.Errorf("-ms %d: the arrival window must be positive", ms)
	}
	return nil
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
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
	var doc scaleJSON
	if p.Protocol != "" {
		doc.ScaleMachine = exp.Collect[exp.ScaleMachinePoint](r)
		if bench {
			rows, err := benchScaleMachine(p)
			if err != nil {
				return err
			}
			doc.BenchMachine = rows
		}
	} else {
		doc.Scale = exp.Collect[exp.ScalePoint](r)
		if bench {
			rows, err := benchScale(p)
			if err != nil {
				return err
			}
			doc.Bench = rows
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// benchScale times the SAME world at shards {1,4,8} (skipping counts
// above -nodes) with workers = shard count, and stamps each row with
// this host's wall time and events/sec. The simulated results are
// byte-identical across the ladder — only the Host* fields vary, and
// they vary with the machine: events/sec scales with shard count only
// up to the host's core count (HostCPUs records it).
func benchScale(p exp.Params) ([]exp.ScalePoint, error) {
	var rows []exp.ScalePoint
	for _, shards := range []int{1, 4, 8} {
		if shards > p.Nodes {
			continue
		}
		bp := p
		bp.Shards = shards
		start := time.Now()
		pt, err := exp.RunScale(bp, shards)
		if err != nil {
			return nil, err
		}
		stampHost(&pt, time.Since(start))
		rows = append(rows, pt)
	}
	return rows, nil
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

// benchScaleMachine is benchScale for the hosted-machine worlds: the
// same shard ladder, one pass per selected protocol. The simulated
// columns are byte-identical down each protocol's ladder; only the
// Host* stamps vary with the machine.
func benchScaleMachine(p exp.Params) ([]exp.ScaleMachinePoint, error) {
	names, err := exp.ScaleProtocolNames(p.Protocol)
	if err != nil {
		return nil, err
	}
	var rows []exp.ScaleMachinePoint
	for _, name := range names {
		for _, shards := range []int{1, 4, 8} {
			if shards > p.Nodes {
				continue
			}
			bp := p
			bp.Shards = shards
			start := time.Now()
			pt, err := exp.RunScaleMachineNamed(name, bp, shards)
			if err != nil {
				return nil, err
			}
			stampHost(&pt.ScalePoint, time.Since(start))
			rows = append(rows, pt)
		}
	}
	return rows, nil
}
