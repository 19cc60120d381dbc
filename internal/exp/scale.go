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
// The generator (rpcGen) is shared with the scalemachine experiment;
// each world supplies only a request/serve/complete cost model, here
// busy-until arithmetic on the client port and the server engine.
//
// Everything reported here is layout-invariant: the same (nodes, seed,
// workload) yields byte-identical results at every shard count and
// every worker count (TestScaleShardParity), which is what makes the
// experiment safe to golden and to benchdiff.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
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

// scaleKnobs are the scale knobs of a Params, resolved.
type scaleKnobs struct {
	nodes, shards, arrival, tenants int
	bytes                           uint64
	dur                             sim.Time
	seed                            uint64
	interval                        sim.Time // per-tenant mean inter-arrival
}

// The scale knobs' defaults, which are cmd/clustersim's flag defaults
// and what resolveScale puts in a zero knob.
const (
	scaleNodes   = 32
	scaleShards  = 4
	scaleArrival = 20000
	scaleTenants = 2
	scaleBytes   = 64
	scaleMs      = 2
	scaleSeed    = 1
)

// Bounds of the scale knobs in clustersim's flag table: checkScale
// shares the first; the others keep the knobs inside 64-bit picosecond
// arithmetic.
const (
	// scaleMinNodes: every RPC goes to another node.
	scaleMinNodes = 2
	// scaleMaxMs is the longest arrival window, in milliseconds, that
	// the picosecond clock holds.
	scaleMaxMs = float64(math.MaxInt64 / sim.Millisecond)
	// scaleMaxPerSecond is the largest count that, multiplied by one
	// simulated second in picoseconds, fits a uint64: the ceiling of
	// -bytes (net.ShardedCluster.Send's wire time) and -tenants
	// (checkScale's inter-arrival).
	scaleMaxPerSecond = float64(math.MaxUint64 / uint64(sim.Second))
)

// resolveScale fills p's zero scale knobs with their defaults and
// checks the result; a machine world adds its own bounds on top.
func resolveScale(p Params, machine bool) (scaleKnobs, error) {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.Nodes, scaleNodes)
	def(&p.Shards, scaleShards)
	def(&p.Arrival, scaleArrival)
	def(&p.Tenants, scaleTenants)
	if p.ScaleBytes == 0 {
		p.ScaleBytes = scaleBytes
	}
	if p.ScaleDur == 0 {
		p.ScaleDur = scaleMs * sim.Millisecond
	}
	if p.ScaleSeed == 0 {
		p.ScaleSeed = scaleSeed
	}
	return checkScale(p, machine)
}

// ValidScale checks p's scale knobs as given, zeros included: after
// Bind has checked each flag alone, cmd/clustersim calls it for the
// rules between knobs (shards within nodes, a nonzero inter-arrival,
// and, with a Protocol, the machine world's bounds) to exit 2 before
// any world is built.
func ValidScale(p Params) error {
	_, err := checkScale(p, p.Protocol != "")
	return err
}

func checkScale(p Params, machine bool) (scaleKnobs, error) {
	k := scaleKnobs{nodes: p.Nodes, shards: p.Shards, arrival: p.Arrival, tenants: p.Tenants,
		bytes: p.ScaleBytes, dur: p.ScaleDur, seed: p.ScaleSeed}
	switch {
	case k.nodes < scaleMinNodes:
		return k, fmt.Errorf("-nodes %d: the scale workload needs at least %d nodes", k.nodes, scaleMinNodes)
	case k.shards < 1:
		return k, fmt.Errorf("-shards %d: need at least 1 shard", k.shards)
	case k.shards > k.nodes:
		return k, fmt.Errorf("-shards %d exceeds -nodes %d: a shard must own at least one node", k.shards, k.nodes)
	case k.arrival <= 0:
		return k, fmt.Errorf("-arrival %d: the RPC arrival rate must be positive", k.arrival)
	case k.tenants < 1:
		return k, fmt.Errorf("-tenants %d: need at least 1 tenant stream per node", k.tenants)
	case k.dur <= 0:
		return k, fmt.Errorf("-ms %d: the arrival window must be positive", k.dur/sim.Millisecond)
	}
	// Tenants streams per node add up to the per-node rate. Integer
	// picosecond arithmetic only. rpcGen.jitter draws each gap from
	// [interval/2, interval/2+interval), which is 0 below 2 ps: the
	// world would never leave its first instant.
	k.interval = sim.Time(uint64(sim.Second) * uint64(k.tenants) / uint64(k.arrival))
	if k.interval < 2 {
		return k, fmt.Errorf("-arrival %d: too high for -tenants %d (zero inter-arrival: a %d ps mean gap, below the 2 ps the jitter needs)",
			k.arrival, k.tenants, k.interval)
	}
	if machine {
		return k, checkMachine(p)
	}
	return k, nil
}

// rpcModel is what one scale world adds to the shared generator: the
// cost of issuing a request, serving it, and landing its completion.
// Each call runs in the event of the node it names and returns the
// world's first failure.
type rpcModel interface {
	request(n, dst int, seq uint64, now sim.Time) error
	serve(m net.SMsg, now sim.Time) error
	complete(m net.SMsg, now sim.Time) error
}

// rpcGen is the open-loop RPC generator both scale worlds share: the
// jittered arrival streams, uniform peer choice, issue and latency
// bookkeeping, and the fold into a ScalePoint. Every slice is indexed
// by node and touched only by that node's events — the node-local rule
// the sharded engine's determinism rests on.
type rpcGen struct {
	c     *net.ShardedCluster
	model rpcModel
	k     scaleKnobs
	boot  sim.Time // arrivals start after it; goodput is over Finish - boot
	end   sim.Time // arrival window close (boot + dur)

	arrivals []func(now sim.Time) // per node: its arrival event, bound once
	issueAt  [][]sim.Time         // per client: arrival instant of RPC seq i
	lats     [][]sim.Time         // per client: completed RPC latencies
	errs     []error              // per node: first event-side failure (handlers cannot return one)
}

func newRPCGen(c *net.ShardedCluster, k scaleKnobs, boot sim.Time, model rpcModel) *rpcGen {
	g := &rpcGen{c: c, model: model, k: k, boot: boot, end: boot + k.dur,
		issueAt: make([][]sim.Time, k.nodes),
		lats:    make([][]sim.Time, k.nodes),
		errs:    make([]error, k.nodes),
	}
	// Each node's issue and latency slices are cap-limited windows of
	// one backing array each, sized by arrivalBound: no node's append
	// regrows, and none can reach a neighbour's window.
	per := arrivalBound(k)
	issueAt, lats := make([]sim.Time, k.nodes*per), make([]sim.Time, k.nodes*per)
	for n := 0; n < k.nodes; n++ {
		g.issueAt[n] = issueAt[n*per : n*per : (n+1)*per]
		g.lats[n] = lats[n*per : n*per : (n+1)*per]
	}
	g.arrivals = make([]func(sim.Time), k.nodes)
	for n := range g.arrivals {
		g.arrivals[n] = func(now sim.Time) { g.arrive(n, now) }
	}
	c.SetDeliver(g.deliver)
	return g
}

// rpcReserveMax caps the elements newRPCGen reserves per slice across
// all nodes; a node past its share appends into a fresh array.
const rpcReserveMax = 1 << 22

// arrivalBound is the most RPCs a node can issue in k's window: every
// gap jitter draws is at least interval/2, the first arrival comes one
// gap past boot, and later ones only before the window closes, so each
// tenant stream sees at most dur/(interval/2)+1. It is capped so that
// nodes·bound stays within rpcReserveMax.
func arrivalBound(k scaleKnobs) int {
	gap := max(uint64(k.interval/2), 1)
	per := min(uint64(k.dur)/gap+1, uint64(rpcReserveMax/k.nodes))
	return int(min(per*uint64(k.tenants), uint64(rpcReserveMax/k.nodes)))
}

// prime schedules every tenant stream's first arrival past boot. Draws
// happen in fixed (node, tenant) order on each node's own stream, so
// priming is layout-invariant by construction.
func (g *rpcGen) prime() {
	for n := 0; n < g.k.nodes; n++ {
		for t := 0; t < g.k.tenants; t++ {
			g.scheduleArrival(n, g.jitter(n, g.boot))
		}
	}
}

// run drives the primed world to completion; a failed node stops
// issuing and serving, and the first failure in node order is the
// world's.
func (g *rpcGen) run(workers int) error {
	if err := g.c.Run(par.Workers(workers), scaleMaxWindows); err != nil {
		return err
	}
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jitter draws the next inter-arrival gap for a stream on node n:
// uniform in [interval/2, 3*interval/2), mean = interval, all-integer.
func (g *rpcGen) jitter(n int, now sim.Time) sim.Time {
	return now + g.k.interval/2 + sim.Time(g.c.Rand(n).Uint64()%uint64(g.k.interval))
}

func (g *rpcGen) scheduleArrival(n int, at sim.Time) {
	g.c.At(n, at, g.arrivals[n])
}

// arrive is one RPC arrival on node n: keep the stream alive, pick a
// uniform remote peer, record the issue, hand the request to the model.
func (g *rpcGen) arrive(n int, now sim.Time) {
	rng := g.c.Rand(n)
	if next := g.jitter(n, now); next < g.end {
		g.scheduleArrival(n, next)
	}
	if g.errs[n] != nil {
		return
	}
	dst := rng.Intn(g.k.nodes - 1)
	if dst >= n {
		dst++ // uniform over the other nodes, never self
	}
	seq := uint64(len(g.issueAt[n]))
	g.issueAt[n] = append(g.issueAt[n], now)
	g.fail(n, g.model.request(n, dst, seq, now))
}

// deliver is the fabric receive hook: requests go to the server's
// model; completions close the latency sample first.
func (g *rpcGen) deliver(m net.SMsg, now sim.Time) {
	d := m.Dst
	if g.errs[d] != nil {
		return
	}
	switch m.Kind {
	case scaleKindReq:
		g.fail(d, g.model.serve(m, now))
	case scaleKindResp:
		g.lats[d] = append(g.lats[d], now-g.issueAt[d][m.Arg])
		g.fail(d, g.model.complete(m, now))
	}
}

func (g *rpcGen) fail(n int, err error) {
	if err != nil && g.errs[n] == nil {
		g.errs[n] = err
	}
}

// point folds the finished world into a ScalePoint. Every node's
// latencies land in one slice, which is sorted in place for the
// percentiles; the mean is stats.Sample's (integer division of the
// sum), so the fold is layout-invariant.
func (g *rpcGen) point() ScalePoint {
	var issued, completed uint64
	for n := 0; n < g.k.nodes; n++ {
		issued += uint64(len(g.issueAt[n]))
		completed += uint64(len(g.lats[n]))
	}
	lats := make([]sim.Time, 0, completed)
	for n := 0; n < g.k.nodes; n++ {
		lats = append(lats, g.lats[n]...)
	}
	slices.Sort(lats)
	var mean, sum sim.Time
	for _, l := range lats {
		sum += l
	}
	if len(lats) > 0 {
		mean = sum / sim.Time(len(lats))
	}
	t := g.c.Totals()
	pt := ScalePoint{
		Nodes:   g.k.nodes,
		Shards:  g.k.shards,
		Arrival: g.k.arrival,
		Tenants: g.k.tenants,
		Bytes:   g.k.bytes,
		Dur:     g.k.dur,

		Issued:    issued,
		Completed: completed,
		Mean:      mean,
		P50:       stats.Percentile(lats, 50),
		P99:       stats.Percentile(lats, 99),

		Deliveries:  t.Delivered,
		Events:      t.Events,
		Windows:     t.Windows,
		Finish:      t.Finish,
		Fingerprint: g.c.Fingerprint(),
	}
	if t.Finish > g.boot {
		secs := float64(t.Finish-g.boot) / 1e12
		pt.GoodputMBps = float64(completed) * float64(g.k.bytes) / secs / 1e6
		pt.GoodputRPCs = float64(completed) / secs
	}
	return pt
}

// scaleWorld is the flat world: the generator over busy-until costs.
type scaleWorld struct {
	*rpcGen
	nextFree []sim.Time // client initiation port busy-until
	srvFree  []sim.Time // server engine busy-until
}

// newScaleWorld builds the flat world under p, unprimed.
func newScaleWorld(p Params) (*scaleWorld, error) {
	k, err := resolveScale(p, false)
	if err != nil {
		return nil, err
	}
	c, err := net.NewShardedCluster(net.ShardedConfig{
		Nodes:  k.nodes,
		Shards: k.shards,
		Link:   net.Gigabit(),
		Seed:   k.seed,
	})
	if err != nil {
		return nil, err
	}
	w := &scaleWorld{nextFree: make([]sim.Time, k.nodes), srvFree: make([]sim.Time, k.nodes)}
	w.rpcGen = newRPCGen(c, k, 0, w)
	return w, nil
}

// RunScale builds one sharded world under p and runs it to completion
// with the given intra-world worker count (<= 0 selects GOMAXPROCS).
// The result is identical for every workers value — the sharded
// engine's contract — so callers choose workers purely for host speed.
func RunScale(p Params, workers int) (ScalePoint, error) {
	w, err := newScaleWorld(p)
	if err != nil {
		return ScalePoint{}, err
	}
	w.prime()
	if err := w.run(workers); err != nil {
		return ScalePoint{}, err
	}
	return w.point(), nil
}

// request queues the RPC through the client's initiation port.
func (w *scaleWorld) request(n, dst int, seq uint64, now sim.Time) error {
	w.nextFree[n] = max(now, w.nextFree[n]) + scaleInitCost
	w.c.Send(n, dst, scaleKindReq, w.k.bytes, seq, w.nextFree[n])
	return nil
}

// serve occupies the server engine and returns a completion write.
func (w *scaleWorld) serve(m net.SMsg, now sim.Time) error {
	d := m.Dst
	w.srvFree[d] = max(now, w.srvFree[d]) + scaleSrvCost
	w.c.Send(d, m.Src, scaleKindResp, scaleRespBytes, m.Arg, w.srvFree[d])
	return nil
}

func (w *scaleWorld) complete(net.SMsg, sim.Time) error { return nil }

// scaleCells expands the experiment: one cell, one sharded world. The
// grid stays width-one because the world already spans the whole
// cluster; p.Procs becomes the INTRA-world worker count instead of the
// usual cell fan-out (there is nothing else to fan out).
func scaleCells(p Params) ([]Cell, error) {
	k, err := resolveScale(p, false)
	if err != nil {
		return nil, err
	}
	cfg := fmt.Sprintf("%dn/%ds", k.nodes, k.shards)
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
