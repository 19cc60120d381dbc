package exp

// The `scalemachine` experiment: the scale workload re-run with a FULL
// machine.Machine per cluster node instead of the flat Table-1-cost
// model. Every RPC pays the selected protocol's real initiation
// sequence — shadow stores through the TLB and write buffer, kernel
// traps, engine acceptance — on the node's own CPU, and every request
// and response moves through the node's actual DMA engine (payload
// snapshotted at acceptance, shipped at the engine's computed End) into
// the sharded fabric. The method axis of the two-node clustersim
// comparison becomes a cluster-scale axis: per-protocol goodput and
// latency percentiles at 128-1000 nodes. Arrivals, peer choice and the
// result fold are the flat world's generator (rpcGen, scale.go); this
// file supplies the hosted fleet and its cost model.
//
// World construction amortizes through a pristine-snapshot template
// pool: ONE standalone machine per (protocol, cluster size) is built,
// attached, mapped (a remote req/resp window per peer) and snapshotted;
// every node is then hydrated with machine.NewFromSnapshotHosted onto
// its shard's clock and queue, sharing the template's memory
// copy-on-write and its page tables by pointer. A 1000-node world costs
// one template build plus 1000 cheap hydrations.
//
// Time discipline: machines on the same shard share the shard clock, so
// each machine floors the clock to its own high-water mark before
// executing and records where it left it (net.HostedMachines
// Floor/Leave), and serializes behind its engine's last transfer End
// (Bump). Clones carry template-era substrate timestamps, so all
// arrivals are primed after the template's snapshot time ("boot").
// Everything reported is layout-invariant: byte-identical output at
// every shard and worker count (TestScaleMachineShardParity), same as
// the flat scale experiment.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

func init() {
	Register(&Experiment{
		Name:  "scalemachine",
		Doc:   "machines at cluster scale: per-protocol RPC traffic through real per-node DMA engines",
		Cells: scaleMachineCells,
		Render: map[Format]RenderFunc{
			Text: scaleMachineText,
		},
	})
}

const (
	// scaleMNodeShift narrows each node's remote window to 16 KiB (two
	// 8 KiB pages: request landing + response landing), which stretches
	// the 32 MiB remote address space to 2048 nodes.
	scaleMNodeShift = 14
	// scaleMMaxNodes = remote window size >> scaleMNodeShift.
	scaleMMaxNodes = 2048
	// scaleMRespBytes is the completion write the server returns.
	scaleMRespBytes = 16
	// scaleMSrvCycles is the server-side request-validation spin (CPU
	// cycles) charged before the response initiation.
	scaleMSrvCycles = 300
	// scaleMRackSize groups nodes into racks for the latency matrix;
	// cross-rack wires are scaleMRackCross times the base link latency.
	scaleMRackSize  = 32
	scaleMRackCross = 3
	// scaleMPage is the Alpha page size the address map below is built
	// on; the template build asserts the preset agrees.
	scaleMPage = 8192
)

// Template address map (one process per node, cloned from the
// template, so every node sees the same layout).
const (
	// scaleMReqVA/scaleMRespVA are the node's OWN payload pages: the
	// client writes its request tag into reqVA's frame, the server its
	// response tag into respVA's frame, and DMAs read from them.
	scaleMReqVA  = vm.VAddr(0x0010_0000)
	scaleMRespVA = scaleMReqVA + scaleMPage
	// scaleMLandReqVA/scaleMLandRespVA are read-only views of the two
	// landing pages (physical 0 and scaleMPage — below the kernel's
	// frame allocator, so otherwise unused). Incoming payloads land
	// there; the CPU validates them with real loads.
	scaleMLandReqVA  = vm.VAddr(0x0020_0000)
	scaleMLandRespVA = scaleMLandReqVA + scaleMPage
	// scaleMPeerBase starts the per-peer remote windows: peer d's
	// request page maps at scaleMPeerVA(d), its response page one page
	// further, 16 KiB stride.
	scaleMPeerBase = vm.VAddr(0x0400_0000)

	// Landing offsets inside a node's remote window: the fabric address
	// is also the destination physical address, mirroring net.Fabric.
	scaleMReqOff  = phys.Addr(0)
	scaleMRespOff = phys.Addr(scaleMPage)
)

// scaleMPeerVA returns the VA of peer d's remote request page; +8192 is
// its response page.
func scaleMPeerVA(d int) vm.VAddr {
	return scaleMPeerBase + vm.VAddr(d)<<scaleMNodeShift
}

// ScaleMachinePoint is one scalemachine run's complete observation: the
// flat scale metrics plus the machine-world extras.
type ScaleMachinePoint struct {
	ScalePoint
	Protocol string
	Fleet
}

// Fleet is the machine-world half of a ScaleMachinePoint.
type Fleet struct {
	// Boot is the template's snapshot time: arrivals start after it,
	// and goodput is computed over Finish - Boot.
	Boot sim.Time `json:"BootPs"`
	// Lookahead/LatMin/LatMax describe the rack latency matrix the
	// synchronizer ran under.
	Lookahead sim.Time `json:"LookaheadPs"`
	LatMin    sim.Time `json:"LatMinPs"`
	LatMax    sim.Time `json:"LatMaxPs"`
	// Engine totals summed over every node's real DMA engine.
	EngStarted    uint64
	EngRejected   uint64
	EngCompleted  uint64
	EngBytesMoved uint64
	// MachineDigest folds every node's engine counters and CPU
	// high-water mark in node order — the machine-level analogue of the
	// fabric Fingerprint, pinned by the parity tests.
	MachineDigest uint64
}

// MarshalJSON writes the row the tools emit: ScalePoint's layout with a
// "protocol/nodes/shards" Label and the Protocol up front, the fleet
// after Fingerprint, and MachineDigest as hex like Fingerprint.
func (pt ScaleMachinePoint) MarshalJSON() ([]byte, error) {
	type scale ScalePoint
	type fleet Fleet
	return json.Marshal(struct {
		Label    string
		Protocol string
		scale
		Fingerprint string
		fleet
		MachineDigest string
		HostClock
	}{
		fmt.Sprintf("%s/%dn/%ds", pt.Protocol, pt.Nodes, pt.Shards), pt.Protocol,
		scale(pt.ScalePoint), fmt.Sprintf("%016x", pt.Fingerprint),
		fleet(pt.Fleet), fmt.Sprintf("%016x", pt.MachineDigest),
		pt.Host,
	})
}

// scaleMTemplate is one pooled pristine world: a standalone machine
// built, attached and mapped for a (protocol, cluster size) pair, plus
// the precomputed pieces every clone shares.
type scaleMTemplate struct {
	snap   *machine.Snapshot
	h      *userdma.Handle
	p      *proc.Process
	boot   sim.Time  // snapshot time; clones must not run before it
	reqPA  phys.Addr // client request payload frame
	respPA phys.Addr // server response payload frame
}

var (
	scaleMMu    sync.Mutex
	scaleMCache = map[string]*scaleMTemplate{}
)

// scaleMTemplateFor builds (or returns the pooled) template for method
// at the given cluster size. Safe for concurrent cells: the build is
// serialized, and hydration from the returned snapshot is read-only.
func scaleMTemplateFor(method userdma.Method, nodes int) (*scaleMTemplate, error) {
	key := fmt.Sprintf("%s/%d", method.Name(), nodes)
	scaleMMu.Lock()
	defer scaleMMu.Unlock()
	if t, ok := scaleMCache[key]; ok {
		return t, nil
	}
	cfg := userdma.ConfigFor(method)
	cfg.Engine.NodeShift = scaleMNodeShift
	if cfg.PageSize != scaleMPage {
		return nil, fmt.Errorf("exp: scalemachine address map assumes %d-byte pages, preset has %d", scaleMPage, cfg.PageSize)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	// The library process: its body is empty (RPC events drive the CPU
	// directly through userdma.DirectCPU), but running it to completion
	// leaves a settled record the snapshot can carry, and its address
	// space holds every mapping below.
	p := m.NewProcess("rpc", func(c *proc.Context) error { return nil })
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return nil, err
	}
	if p.Err() != nil {
		return nil, p.Err()
	}
	// Attach first: context-carrying protocols burn their context id
	// into the shadow mappings created below.
	h, err := method.Attach(m, p)
	if err != nil {
		return nil, err
	}
	frames, err := m.SetupPages(p, scaleMReqVA, 2, vm.Read|vm.Write)
	if err != nil {
		return nil, err
	}
	m.Mem.Fill(frames[0], scaleMPage, 0xab)
	m.Mem.Fill(frames[1], scaleMPage, 0xcd)
	// Local read-only views of the landing pages.
	if err := m.Kernel.MapFrame(p.AddressSpace(), scaleMLandReqVA, scaleMReqOff, vm.Read); err != nil {
		return nil, err
	}
	if err := m.Kernel.MapFrame(p.AddressSpace(), scaleMLandRespVA, scaleMRespOff, vm.Read); err != nil {
		return nil, err
	}
	// One remote req/resp window per peer (self included, for a uniform
	// map), each with its shadow alias for the user-level sequences.
	for d := 0; d < nodes; d++ {
		va := scaleMPeerVA(d)
		if err := m.Kernel.MapRemote(p, va, d, scaleMReqOff); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadow(p, va); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapRemote(p, va+scaleMPage, d, scaleMRespOff); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadow(p, va+scaleMPage); err != nil {
			return nil, err
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &scaleMTemplate{snap: snap, h: h, p: p, boot: snap.Time(), reqPA: frames[0], respPA: frames[1]}
	scaleMCache[key] = t
	return t, nil
}

// scaleMWorld is the hosted-machine world: the generator over a fleet
// of full machines, one per node, each RPC paying its protocol's real
// initiation and moving through the node's own engine.
type scaleMWorld struct {
	*rpcGen
	protocol string
	hm       *net.HostedMachines
	h        *userdma.Handle
	p        *proc.Process
	cpus     []userdma.DirectCPU // node n's CPU, owning its program buffer
	reqPA    phys.Addr
	respPA   phys.Addr
}

// scaleMPort is one node's fabric attachment: the engine's remote ships
// become cluster messages. The landing offset classifies the message
// and the payload's first eight bytes carry the RPC tag — the tag rides
// the actual DMA payload through the engine's acceptance-time snapshot.
type scaleMPort struct {
	c    *net.ShardedCluster
	node int
}

// Deliver implements dma.RemoteHandler. data is not retained.
func (pt *scaleMPort) Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error {
	var kind uint8
	switch addr {
	case scaleMReqOff:
		kind = scaleKindReq
	case scaleMRespOff:
		kind = scaleKindResp
	default:
		return fmt.Errorf("exp: scalemachine ship to unknown landing offset %v", addr)
	}
	if len(data) < 8 {
		return fmt.Errorf("exp: scalemachine ship of %d bytes cannot carry the RPC tag", len(data))
	}
	pt.c.Send(pt.node, node, kind, uint64(len(data)), binary.LittleEndian.Uint64(data[:8]), at)
	return nil
}

// checkMachine applies the machine world's bounds on top of the shared
// scale knobs: a known protocol selector, the node ceiling of the
// 16 KiB per-node remote window, and a request that carries the 8-byte
// RPC tag and fits one landing page.
func checkMachine(p Params) error {
	if _, err := selectProtocols(p.Protocol); err != nil {
		return err
	}
	switch {
	case p.Nodes > scaleMMaxNodes:
		return fmt.Errorf("-nodes %d: the machine world supports at most %d nodes (16 KiB remote window per node)", p.Nodes, scaleMMaxNodes)
	case p.ScaleBytes < 8:
		return fmt.Errorf("-bytes %d: machine-world requests must carry the 8-byte RPC tag", p.ScaleBytes)
	case p.ScaleBytes > scaleMPage:
		return fmt.Errorf("-bytes %d: machine-world requests must fit one %d-byte landing page", p.ScaleBytes, scaleMPage)
	}
	return nil
}

// scaleProtocol is one entry of the machine world's protocol axis: the
// -protocol spelling, which points, JSON rows and bench labels carry
// (display names have spaces and punctuation), and its method.
type scaleProtocol struct {
	name   string
	method userdma.Method
}

// scaleProtocols is the NOW comparison line-up, in "all" order.
var scaleProtocols = []scaleProtocol{
	{"kernel", userdma.KernelLevel{}},
	{"extshadow", userdma.ExtShadow{}},
	{"keybased", userdma.KeyBased{}},
	{"repeated", userdma.RepeatedPassing{Len: 5, Barriers: true}},
}

// selectProtocols expands a -protocol selector: ""/"all" is the whole
// line-up, anything else a single name.
func selectProtocols(selector string) ([]scaleProtocol, error) {
	if selector == "" || selector == "all" {
		return scaleProtocols, nil
	}
	for _, sp := range scaleProtocols {
		if sp.name == selector {
			return []scaleProtocol{sp}, nil
		}
	}
	return nil, fmt.Errorf("-protocol %q: unknown protocol (kernel, extshadow, keybased, repeated, all)", selector)
}

// ScaleProtocolNames expands a -protocol selector into the short names
// it runs ("" / "all" → the full line-up).
func ScaleProtocolNames(selector string) ([]string, error) {
	sps, err := selectProtocols(selector)
	names := make([]string, len(sps))
	for i, sp := range sps {
		names[i] = sp.name
	}
	return names, err
}

// RunScaleMachineNamed builds the hosted-machine world of one protocol,
// named by its short form, under p and runs it with the given
// intra-world worker count. Like RunScale, the result is byte-identical
// at every shards/workers combination.
func RunScaleMachineNamed(protocol string, p Params, workers int) (ScaleMachinePoint, error) {
	sps, err := selectProtocols(protocol)
	if err == nil && len(sps) != 1 {
		err = fmt.Errorf("exp: %q selects %d protocols, want one", protocol, len(sps))
	}
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	return runScaleMachine(sps[0], p, workers)
}

func runScaleMachine(sp scaleProtocol, p Params, workers int) (ScaleMachinePoint, error) {
	w, err := newScaleMachineWorld(sp, p)
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	w.prime()
	if err := w.run(workers); err != nil {
		return ScaleMachinePoint{}, err
	}
	return w.observe(), nil
}

// newScaleMachineWorld assembles the full hosted fleet — template,
// clones, ports, deliver hook — but does not prime arrivals or run; the
// split is what lets the fault tests attach a plane to the pre-traffic
// world.
func newScaleMachineWorld(sp scaleProtocol, p Params) (*scaleMWorld, error) {
	k, err := resolveScale(p, true)
	if err != nil {
		return nil, err
	}
	tpl, err := scaleMTemplateFor(sp.method, k.nodes)
	if err != nil {
		return nil, err
	}
	base := net.Gigabit()
	c, err := net.NewShardedCluster(net.ShardedConfig{
		Nodes:  k.nodes,
		Shards: k.shards,
		Link:   base,
		Seed:   k.seed,
		// Rack topology: racks of scaleMRackSize nodes, cross-rack
		// wires 3x the base latency. A pure function of the node ids,
		// so identical under every shard layout.
		Latency: func(src, dst int) sim.Time {
			if src/scaleMRackSize == dst/scaleMRackSize {
				return base.Latency
			}
			return scaleMRackCross * base.Latency
		},
	})
	if err != nil {
		return nil, err
	}
	fleet := make([]*machine.Machine, k.nodes)
	for n := range fleet {
		clock, events := c.NodeEnv(n)
		mm, err := machine.NewFromSnapshotHosted(tpl.snap, clock, events)
		if err != nil {
			return nil, fmt.Errorf("exp: scalemachine node %d: %w", n, err)
		}
		mm.Engine.SetRemoteHandler(&scaleMPort{c: c, node: n})
		fleet[n] = mm
	}
	hm, err := net.NewHostedMachines(c, fleet)
	if err != nil {
		return nil, err
	}
	w := &scaleMWorld{protocol: sp.name, hm: hm, h: tpl.h, p: tpl.p, cpus: make([]userdma.DirectCPU, k.nodes), reqPA: tpl.reqPA, respPA: tpl.respPA}
	for n, mm := range fleet {
		w.cpus[n] = userdma.DirectCPU{M: mm, P: tpl.p}
	}
	// Arrivals start after the template's snapshot time: clone
	// substrates carry template-era timestamps.
	w.rpcGen = newRPCGen(c, k, tpl.boot, w)
	return w, nil
}

// tag writes the RPC tag into the first word of a payload frame — the
// application-level "produce the message" step (free, like the flat
// model's payload; the DMA that moves it pays full price).
func tag(m *machine.Machine, pa phys.Addr, seq uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return m.Mem.WriteBytes(pa, b[:])
}

// errRefused reports an initiation the engine answered DMA_FAILURE.
var errRefused = errors.New("refused")

// initiate runs the protocol's REAL initiation sequence on node n's CPU
// for a DMA src -> dst, then closes the machine-driving event: record
// the CPU high-water mark, and serialize the node behind its engine's
// last transfer End (the engine and payload buffers are a serial
// per-node resource). The engine ships the payload to the fabric at its
// computed End.
func (w *scaleMWorld) initiate(n int, m *machine.Machine, src, dst vm.VAddr, size uint64) error {
	st, err := w.h.DirectDMA(&w.cpus[n], src, dst, size)
	w.hm.Leave(n)
	if t := m.Engine.LastTransfer(); t != nil {
		w.hm.Bump(n, t.End)
	}
	if err == nil && st == dma.StatusFailure {
		err = errRefused
	}
	return err
}

// request writes the tag into the client's request frame and initiates
// the request DMA into dst's request landing page.
func (w *scaleMWorld) request(n, dst int, seq uint64, now sim.Time) error {
	m := w.hm.Machine(n)
	w.hm.Floor(n, now)
	if err := tag(m, w.reqPA, seq); err != nil {
		return err
	}
	if err := w.initiate(n, m, scaleMReqVA, scaleMPeerVA(dst), w.k.bytes); err != nil {
		return fmt.Errorf("exp: scalemachine node %d request %d: %w", n, seq, err)
	}
	return nil
}

// serve lands a request in the server's memory (net.Fabric semantics:
// fabric address = destination physical address), validates it with a
// real CPU load, and turns around a response through the server's own
// engine into the client's response landing page.
func (w *scaleMWorld) serve(m net.SMsg, now sim.Time) error {
	d := m.Dst
	mm := w.hm.Machine(d)
	w.hm.Floor(d, now)
	if err := tag(mm, scaleMReqOff, m.Arg); err != nil {
		return err
	}
	if _, err := mm.CPU.Load(w.p.AddressSpace(), scaleMLandReqVA, phys.Size64); err != nil {
		return err
	}
	mm.CPU.Spin(scaleMSrvCycles)
	if err := tag(mm, w.respPA, m.Arg); err != nil {
		return err
	}
	if err := w.initiate(d, mm, scaleMRespVA, scaleMPeerVA(m.Src)+scaleMPage, scaleMRespBytes); err != nil {
		return fmt.Errorf("exp: scalemachine node %d response to %d: %w", d, m.Src, err)
	}
	return nil
}

// complete lands a response and performs the client's completion read.
func (w *scaleMWorld) complete(m net.SMsg, now sim.Time) error {
	d := m.Dst
	mm := w.hm.Machine(d)
	w.hm.Floor(d, now)
	if err := tag(mm, scaleMRespOff, m.Arg); err != nil {
		return err
	}
	if _, err := mm.CPU.Load(w.p.AddressSpace(), scaleMLandRespVA, phys.Size64); err != nil {
		return err
	}
	w.hm.Leave(d)
	return nil
}

// observe folds the finished world into a ScaleMachinePoint, node order
// throughout so the fold is layout-invariant.
func (w *scaleMWorld) observe() ScaleMachinePoint {
	latMin, latMax := w.c.LatencyBounds()
	pt := ScaleMachinePoint{
		ScalePoint: w.point(),
		Protocol:   w.protocol,
		Fleet: Fleet{
			Boot:      w.boot,
			Lookahead: w.c.Lookahead(),
			LatMin:    latMin,
			LatMax:    latMax,
		},
	}
	// Machine digest: FNV-1a over every node's engine counters and CPU
	// high-water mark, in node order.
	digest := uint64(1469598103934665603)
	mix := func(v uint64) {
		digest ^= v
		digest *= 1099511628211
	}
	for n := 0; n < w.k.nodes; n++ {
		st := w.hm.Machine(n).Engine.Counters()
		mix(st.ShadowStores.Value())
		mix(st.ShadowLoads.Value())
		mix(st.KeyMismatches.Value())
		mix(st.SeqResets.Value())
		mix(st.Started.Value())
		mix(st.Rejected.Value())
		mix(st.Completed.Value())
		mix(st.BytesMoved.Value())
		mix(st.AtomicOps.Value())
		mix(st.RemoteStarted.Value())
		mix(st.AbortedPending.Value())
		mix(uint64(w.hm.Busy(n)))
		pt.EngStarted += st.Started.Value()
		pt.EngRejected += st.Rejected.Value()
		pt.EngCompleted += st.Completed.Value()
		pt.EngBytesMoved += st.BytesMoved.Value()
	}
	pt.MachineDigest = digest
	return pt
}

// scaleMachineCells expands the experiment: one cell per selected
// protocol, each a complete hosted-machine world. Like the flat scale
// experiment, p.Procs is the INTRA-world worker count; the protocol
// cells themselves also fan out on the cell runner.
func scaleMachineCells(p Params) ([]Cell, error) {
	k, err := resolveScale(p, true)
	if err != nil {
		return nil, err
	}
	sps, err := selectProtocols(p.Protocol)
	if err != nil {
		return nil, err
	}
	cfg := fmt.Sprintf("%dn/%ds", k.nodes, k.shards)
	cells := make([]Cell, len(sps))
	for i, sp := range sps {
		sp := sp
		cells[i] = Cell{Method: sp.method.Name(), Config: cfg, Run: func() (Obs, bool, error) {
			pt, err := runScaleMachine(sp, p, p.Procs)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", sp.method.Name(), err)
			}
			return Obs{pt}, false, nil
		}}
	}
	return cells, nil
}

func scaleMachineText(r *Result, p Params) string {
	pts := Collect[ScaleMachinePoint](r)
	var b strings.Builder
	if len(pts) > 0 {
		pt := pts[0]
		fmt.Fprintf(&b, "Machines at cluster scale — %d nodes, %d shards, %d tenants/node, %d RPC/s/node, %dB requests, %v window\n",
			pt.Nodes, pt.Shards, pt.Tenants, pt.Arrival, pt.Bytes, pt.Dur)
		fmt.Fprintf(&b, "racks of %d (cross-rack %v, intra %v), lookahead %v, boot %v\n\n",
			scaleMRackSize, pt.LatMax, pt.LatMin, pt.Lookahead, pt.Boot)
	}
	tb := stats.NewTable("initiation protocol", "completed", "goodput", "p50", "p99", "rejected", "digest")
	for _, pt := range pts {
		tb.AddRow(pt.Protocol,
			fmt.Sprintf("%d/%d", pt.Completed, pt.Issued),
			fmt.Sprintf("%.1f MB/s (%.0f RPC/s)", pt.GoodputMBps, pt.GoodputRPCs),
			pt.P50, pt.P99,
			pt.EngRejected,
			fmt.Sprintf("%016x", pt.MachineDigest))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	for _, pt := range pts {
		fmt.Fprintf(&b, "%s: engine started/completed %d/%d, %d B moved, %d deliveries, %d windows, finish %v, fingerprint %016x\n",
			pt.Protocol, pt.EngStarted, pt.EngCompleted, pt.EngBytesMoved,
			pt.Deliveries, pt.Windows, pt.Finish, pt.Fingerprint)
	}
	b.WriteString("\nOne full machine per node: every RPC runs the protocol's real initiation\n")
	b.WriteString("sequence and moves through the node's actual DMA engine; identical output\n")
	b.WriteString("at every shard and worker count (the determinism pin).\n")
	return b.String()
}
