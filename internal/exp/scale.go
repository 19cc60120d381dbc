package exp

// The `scale` experiment: the paper's per-transfer numbers extrapolated
// to a datacenter-scale NOW on the sharded engine (net.ShardedCluster).
// An open-loop, multi-tenant traffic generator issues user-level DMA
// RPCs: every node hosts Tenants independent Poisson-ish arrival
// streams (integer-jittered uniform inter-arrival — deliberately no
// floating point in the event path, so the stream is exact on every
// host); each RPC serializes through the client's user-level initiation
// port, crosses the fabric, occupies the server's engine for a service
// turnaround, and returns a small completion write. The experiment
// reports goodput and the client-observed latency distribution
// (mean/p50/p99), plus the engine-side totals (deliveries, events,
// windows) the host events/sec throughput metric is computed from.
//
// Everything reported here is layout-invariant: the same (nodes, seed,
// workload) yields byte-identical results at every shard count and
// every worker count (TestScaleShardParity), which is what makes the
// experiment safe to golden and to benchdiff.

import (
	"encoding/json"
	"fmt"
	"strings"

	"uldma/internal/net"
	"uldma/internal/par"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "scale",
		Doc:   "sharded NOW at scale: open-loop multi-tenant user-level DMA RPC traffic",
		Cells: scaleCells,
		Render: map[Format]RenderFunc{
			Text: scaleText,
		},
	})
}

// Model constants: Table-1-magnitude costs for a user-level DMA RPC,
// fixed so the experiment's axis is scale, not method.
const (
	// scaleInitCost is the client-side user-level initiation cost per
	// RPC (the few-microsecond store sequence the paper measures).
	// Back-to-back RPCs from one node queue behind each other on it.
	scaleInitCost = 2 * sim.Microsecond
	// scaleSrvCost is the server-side turnaround: validate the request,
	// start the response DMA. The server engine is a serial resource.
	scaleSrvCost = 4 * sim.Microsecond
	// scaleRespBytes is the completion write the server returns.
	scaleRespBytes = 16
	// scaleMaxWindows bounds a runaway synchronizer.
	scaleMaxWindows = 1 << 40
)

// Message kinds on the sharded fabric.
const (
	scaleKindReq  uint8 = 1
	scaleKindResp uint8 = 2
)

// ScalePoint is one scale run's complete observation, and the row the
// tools emit as JSON (see MarshalJSON).
type ScalePoint struct {
	Nodes   int
	Shards  int
	Arrival int // per-node RPC arrival rate, RPCs/s
	Tenants int
	Bytes   uint64   // request payload size
	Dur     sim.Time `json:"DurPs"` // arrival-window length

	Issued    uint64 // RPCs issued inside the arrival window
	Completed uint64 // RPCs whose completion write landed

	Mean sim.Time `json:"MeanPs"` // client-observed RPC latency (arrival -> completion)
	P50  sim.Time `json:"P50Ps"`
	P99  sim.Time `json:"P99Ps"`

	// GoodputMBps is completed request payload per simulated second.
	GoodputMBps float64
	// GoodputRPCs is completed RPCs per simulated second.
	GoodputRPCs float64

	Deliveries uint64   // link deliveries (requests + responses)
	Events     uint64   // events fired across all shards
	Windows    uint64   // synchronizer windows
	Finish     sim.Time `json:"FinishPs"` // last event's timestamp

	// Fingerprint digests the world's layout-invariant final state
	// (net.ShardedCluster.Fingerprint); the parity tests pin it across
	// shard and worker counts.
	Fingerprint uint64

	// Host is set only by clustersim -bench; MarshalJSON places it
	// after Fingerprint.
	Host HostClock `json:"-"`
}

// HostClock is a wall-clock measurement of THIS host. Unlike every
// other field of a row it is never expected to reproduce: cmd/benchdiff
// treats each Host*-prefixed leaf as informational.
type HostClock struct {
	HostNs           int64   `json:",omitempty"`
	HostEventsPerSec float64 `json:",omitempty"`
	HostCPUs         int     `json:",omitempty"`
}

// MarshalJSON writes the row the tools emit: a "nodes/shards" Label
// first, Fingerprint as hex (so no JSON reader rounds it through a
// float64), then the host clock.
func (pt ScalePoint) MarshalJSON() ([]byte, error) {
	type scale ScalePoint
	return json.Marshal(struct {
		Label string
		scale
		Fingerprint string
		HostClock
	}{fmt.Sprintf("%dn/%ds", pt.Nodes, pt.Shards), scale(pt), fmt.Sprintf("%016x", pt.Fingerprint), pt.Host})
}

// scaleWorld is the traffic generator's model state. Every slice is
// indexed by node and touched only by that node's events — the
// node-local rule the sharded engine's determinism rests on.
type scaleWorld struct {
	c        *net.ShardedCluster
	nodes    int
	interval sim.Time // mean per-tenant inter-arrival
	end      sim.Time // arrival window close
	bytes    uint64

	nextFree  []sim.Time   // client initiation port busy-until
	srvFree   []sim.Time   // server engine busy-until
	issueAt   [][]sim.Time // per client: arrival instant of RPC seq i
	lats      [][]sim.Time // per client: completed RPC latencies
	issued    []uint64
	completed []uint64
}

// scaleParams resolves the scale knobs with their conventional
// defaults (the cmd/clustersim flag defaults mirror these).
func scaleParams(p Params) (nodes, shards, arrival, tenants int, bytes uint64, dur sim.Time, seed uint64, err error) {
	nodes, shards, arrival, tenants = p.Nodes, p.Shards, p.Arrival, p.Tenants
	bytes, dur, seed = p.ScaleBytes, p.ScaleDur, p.ScaleSeed
	if nodes == 0 {
		nodes = 32
	}
	if shards == 0 {
		shards = 4
	}
	if arrival == 0 {
		arrival = 20000
	}
	if tenants == 0 {
		tenants = 2
	}
	if bytes == 0 {
		bytes = 64
	}
	if dur == 0 {
		dur = 2 * sim.Millisecond
	}
	if seed == 0 {
		seed = 1
	}
	switch {
	case nodes < 2:
		err = fmt.Errorf("exp: scale needs at least 2 nodes (RPCs need a remote peer), got %d", nodes)
	case shards < 1 || shards > nodes:
		err = fmt.Errorf("exp: scale shard count %d out of range 1..%d (one node per shard minimum)", shards, nodes)
	case arrival < 0:
		err = fmt.Errorf("exp: scale arrival rate must be positive, got %d", arrival)
	case tenants < 1:
		err = fmt.Errorf("exp: scale needs at least 1 tenant, got %d", tenants)
	case dur < 0:
		err = fmt.Errorf("exp: scale duration must be positive, got %v", dur)
	}
	return
}

// RunScale builds one sharded world under p and runs it to completion
// with the given intra-world worker count (<= 0 selects GOMAXPROCS).
// The result is identical for every workers value — the sharded
// engine's contract — so callers choose workers purely for host speed.
func RunScale(p Params, workers int) (ScalePoint, error) {
	pt, _, _, err := runScaleWorld(p, workers, nil)
	return pt, err
}

// RunScaleFaulted runs the same world with a fault plane attached to
// the cross-shard links (judged per message in canonical flush order on
// the coordinator) and additionally returns the plane's drop and
// duplicate tallies. A nil plane — or one whose plan is empty, like a
// zero-plan fault.Injector — reproduces RunScale byte for byte.
func RunScaleFaulted(p Params, workers int, plane net.FaultPlane) (pt ScalePoint, drops, dups uint64, err error) {
	return runScaleWorld(p, workers, plane)
}

func runScaleWorld(p Params, workers int, plane net.FaultPlane) (ScalePoint, uint64, uint64, error) {
	nodes, shards, arrival, tenants, bytes, dur, seed, err := scaleParams(p)
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	c, err := net.NewShardedCluster(net.ShardedConfig{
		Nodes:     nodes,
		Shards:    shards,
		Link:      net.Gigabit(),
		Seed:      seed,
		QueueHint: 4 * nodes / shards,
	})
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	if plane != nil {
		c.SetFaultPlane(plane)
	}
	w := &scaleWorld{
		c:     c,
		nodes: nodes,
		// Per-tenant mean inter-arrival: Tenants streams per node add
		// up to the per-node rate. Integer picosecond arithmetic only.
		interval:  sim.Time(uint64(sim.Second) * uint64(tenants) / uint64(arrival)),
		end:       dur,
		bytes:     bytes,
		nextFree:  make([]sim.Time, nodes),
		srvFree:   make([]sim.Time, nodes),
		issueAt:   make([][]sim.Time, nodes),
		lats:      make([][]sim.Time, nodes),
		issued:    make([]uint64, nodes),
		completed: make([]uint64, nodes),
	}
	if w.interval <= 0 {
		return ScalePoint{}, 0, 0, fmt.Errorf("exp: scale arrival rate %d/node too high for %d tenants (zero inter-arrival)", arrival, tenants)
	}
	c.SetDeliver(w.deliver)
	// Prime every tenant stream with a jittered first arrival. Draws
	// happen in fixed (node, tenant) order on each node's own stream,
	// so priming is layout-invariant by construction.
	for n := 0; n < nodes; n++ {
		for t := 0; t < tenants; t++ {
			w.scheduleArrival(n, w.jitter(n, 0))
		}
	}
	if err := c.Run(par.Workers(workers), scaleMaxWindows); err != nil {
		return ScalePoint{}, 0, 0, err
	}
	drops, dups := c.FaultStats()
	return w.observe(arrival, tenants, dur), drops, dups, nil
}

// jitter draws the next inter-arrival gap for a stream on node n:
// uniform in [interval/2, 3*interval/2), mean = interval, all-integer.
func (w *scaleWorld) jitter(n int, now sim.Time) sim.Time {
	return now + w.interval/2 + sim.Time(w.c.Rand(n).Uint64()%uint64(w.interval))
}

func (w *scaleWorld) scheduleArrival(n int, at sim.Time) {
	w.c.At(n, at, func(now sim.Time) { w.arrive(n, now) })
}

// arrive is one RPC arrival on node n: keep the stream alive, pick a
// uniform remote peer, queue through the client initiation port, send.
func (w *scaleWorld) arrive(n int, now sim.Time) {
	rng := w.c.Rand(n)
	if next := w.jitter(n, now); next < w.end {
		w.scheduleArrival(n, next)
	}
	dst := rng.Intn(w.nodes - 1)
	if dst >= n {
		dst++ // uniform over the other nodes, never self
	}
	start := now
	if w.nextFree[n] > start {
		start = w.nextFree[n]
	}
	done := start + scaleInitCost
	w.nextFree[n] = done
	seq := uint64(len(w.issueAt[n]))
	w.issueAt[n] = append(w.issueAt[n], now)
	w.issued[n]++
	w.c.Send(n, dst, scaleKindReq, w.bytes, seq, done)
}

// deliver is the receive hook: requests occupy the server engine and
// return a completion write; completions close the latency sample.
func (w *scaleWorld) deliver(m net.SMsg, now sim.Time) {
	switch m.Kind {
	case scaleKindReq:
		d := m.Dst
		start := now
		if w.srvFree[d] > start {
			start = w.srvFree[d]
		}
		done := start + scaleSrvCost
		w.srvFree[d] = done
		w.c.Send(d, m.Src, scaleKindResp, scaleRespBytes, m.Arg, done)
	case scaleKindResp:
		d := m.Dst
		w.lats[d] = append(w.lats[d], now-w.issueAt[d][m.Arg])
		w.completed[d]++
	}
}

// observe folds the finished world into a ScalePoint. Per-node samples
// concatenate in node order, so the fold is layout-invariant.
func (w *scaleWorld) observe(arrival, tenants int, dur sim.Time) ScalePoint {
	var sample stats.Sample
	var issued, completed uint64
	for n := 0; n < w.nodes; n++ {
		issued += w.issued[n]
		completed += w.completed[n]
		for _, l := range w.lats[n] {
			sample.Add(l)
		}
	}
	t := w.c.Totals()
	pt := ScalePoint{
		Nodes:   w.nodes,
		Shards:  w.c.Config().Shards,
		Arrival: arrival,
		Tenants: tenants,
		Bytes:   w.bytes,
		Dur:     dur,

		Issued:    issued,
		Completed: completed,
		Mean:      sample.Mean(),
		P50:       sample.Percentile(50),
		P99:       sample.Percentile(99),

		Deliveries:  t.Delivered,
		Events:      t.Events,
		Windows:     t.Windows,
		Finish:      t.Finish,
		Fingerprint: w.c.Fingerprint(),
	}
	if t.Finish > 0 {
		secs := float64(t.Finish) / 1e12
		pt.GoodputMBps = float64(completed) * float64(w.bytes) / secs / 1e6
		pt.GoodputRPCs = float64(completed) / secs
	}
	return pt
}

// scaleCells expands the experiment: one cell, one sharded world. The
// grid stays width-one because the world already spans the whole
// cluster; p.Procs becomes the INTRA-world worker count instead of the
// usual cell fan-out (there is nothing else to fan out).
func scaleCells(p Params) ([]Cell, error) {
	nodes, shards, _, _, _, _, _, err := scaleParams(p)
	if err != nil {
		return nil, err
	}
	cfg := fmt.Sprintf("%dn/%ds", nodes, shards)
	return []Cell{{Config: cfg, Run: func() (Obs, bool, error) {
		pt, err := RunScale(p, p.Procs)
		if err != nil {
			return nil, false, err
		}
		return Obs{pt}, false, nil
	}}}, nil
}

func scaleText(r *Result, p Params) string {
	var b strings.Builder
	for _, pt := range Collect[ScalePoint](r) {
		fmt.Fprintf(&b, "NOW at scale — %d nodes, %d shards, %d tenants/node, %d RPC/s/node, %dB requests, %v window\n\n",
			pt.Nodes, pt.Shards, pt.Tenants, pt.Arrival, pt.Bytes, pt.Dur)
		tb := stats.NewTable("metric", "value")
		tb.AddRow("RPCs issued", pt.Issued)
		tb.AddRow("RPCs completed", pt.Completed)
		tb.AddRow("goodput", fmt.Sprintf("%.1f MB/s (%.0f RPC/s)", pt.GoodputMBps, pt.GoodputRPCs))
		tb.AddRow("latency p50", pt.P50)
		tb.AddRow("latency p99", pt.P99)
		tb.AddRow("latency mean", pt.Mean)
		tb.AddRow("link deliveries", pt.Deliveries)
		tb.AddRow("events fired", pt.Events)
		tb.AddRow("sync windows", pt.Windows)
		tb.AddRow("finish", pt.Finish)
		tb.AddRow("fingerprint", fmt.Sprintf("%016x", pt.Fingerprint))
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	b.WriteString("One open-loop multi-tenant RPC generator per node on the sharded engine;\n")
	b.WriteString("identical output at every shard and worker count (the determinism pin).\n")
	return b.String()
}
