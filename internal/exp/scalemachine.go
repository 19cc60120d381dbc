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
// latency percentiles at 128-1000 nodes.
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
	"fmt"
	"strings"
	"sync"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/net"
	"uldma/internal/par"
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

// scaleMWorld is the hosted-machine traffic model. Per-node slices
// follow the node-local rule; err latches the first event-side failure
// (checked after Run — event handlers cannot return errors).
type scaleMWorld struct {
	c     *net.ShardedCluster
	hm    *net.HostedMachines
	h     *userdma.Handle
	p     *proc.Process
	nodes int

	protocol string
	arrival  int
	tenants  int
	dur      sim.Time

	interval sim.Time
	end      sim.Time // arrival window close (boot + dur)
	boot     sim.Time
	bytes    uint64
	reqPA    phys.Addr
	respPA   phys.Addr

	issueAt   [][]sim.Time
	lats      [][]sim.Time
	issued    []uint64
	completed []uint64
	err       error
}

func (w *scaleMWorld) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// scaleMPort is one node's fabric attachment: the engine's remote ships
// become cluster messages. The landing offset classifies the message
// and the payload's first eight bytes carry the RPC tag — the tag rides
// the actual DMA payload through the engine's acceptance-time snapshot.
type scaleMPort struct {
	w    *scaleMWorld
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
	pt.w.c.Send(pt.node, node, kind, uint64(len(data)), binary.LittleEndian.Uint64(data[:8]), at)
	return nil
}

// scaleMachineParams resolves the shared scale knobs, then applies the
// machine world's own bounds.
func scaleMachineParams(p Params) (nodes, shards, arrival, tenants int, bytes uint64, dur sim.Time, seed uint64, err error) {
	nodes, shards, arrival, tenants, bytes, dur, seed, err = scaleParams(p)
	if err != nil {
		return
	}
	switch {
	case nodes > scaleMMaxNodes:
		err = fmt.Errorf("exp: scalemachine supports at most %d nodes (16 KiB remote window per node), got %d", scaleMMaxNodes, nodes)
	case bytes < 8:
		err = fmt.Errorf("exp: scalemachine requests must carry the 8-byte RPC tag, got %d bytes", bytes)
	case bytes > scaleMPage:
		err = fmt.Errorf("exp: scalemachine requests must fit one %d-byte page, got %d bytes", scaleMPage, bytes)
	}
	return
}

// scaleMMethod resolves a protocol name to its method. Names are the
// short forms the clustersim -protocol flag takes.
func scaleMMethod(name string) (userdma.Method, error) {
	switch name {
	case "kernel":
		return userdma.KernelLevel{}, nil
	case "extshadow":
		return userdma.ExtShadow{}, nil
	case "keybased":
		return userdma.KeyBased{}, nil
	case "repeated":
		return userdma.RepeatedPassing{Len: 5, Barriers: true}, nil
	}
	return nil, fmt.Errorf("exp: unknown protocol %q (kernel, extshadow, keybased, repeated, all)", name)
}

// scaleMShort maps a method back to its -protocol flag spelling — the
// stable identifier the point, the JSON rows and the bench labels all
// carry (display names have spaces and punctuation).
func scaleMShort(m userdma.Method) string {
	switch m.(type) {
	case userdma.KernelLevel:
		return "kernel"
	case userdma.ExtShadow:
		return "extshadow"
	case userdma.KeyBased:
		return "keybased"
	case userdma.RepeatedPassing:
		return "repeated"
	}
	return m.Name()
}

// ValidProtocol rejects -protocol flag values the scalemachine
// experiment would refuse ("" and "all" select the full line-up) —
// the tools call it for flag-level exit-2 messages before any world
// is built.
func ValidProtocol(name string) error {
	_, err := scaleMProtocols(name)
	return err
}

// ValidScaleMachineWorld applies the machine world's extra flag-level
// bounds — the node ceiling imposed by the 16 KiB per-node remote
// window and the request-size band (must carry the 8-byte RPC tag,
// must fit one landing page) — so the tools can exit 2 before any
// template is built. scaleMachineParams re-checks underneath.
func ValidScaleMachineWorld(nodes int, bytes uint64) error {
	switch {
	case nodes > scaleMMaxNodes:
		return fmt.Errorf("the machine world supports at most %d nodes (16 KiB remote window per node)", scaleMMaxNodes)
	case bytes < 8:
		return fmt.Errorf("machine-world requests must carry the 8-byte RPC tag")
	case bytes > scaleMPage:
		return fmt.Errorf("machine-world requests must fit one %d-byte landing page", scaleMPage)
	}
	return nil
}

// scaleMProtocols expands a protocol selector into the method list:
// ""/"all" is the NOW comparison line-up, anything else a single name.
func scaleMProtocols(name string) ([]userdma.Method, error) {
	if name == "" || name == "all" {
		return ClusterMethods(), nil
	}
	m, err := scaleMMethod(name)
	if err != nil {
		return nil, err
	}
	return []userdma.Method{m}, nil
}

// ScaleProtocolNames expands a -protocol selector into the short names
// it runs ("" / "all" → the full line-up) — what the tools iterate for
// per-protocol bench ladders.
func ScaleProtocolNames(selector string) ([]string, error) {
	ms, err := scaleMProtocols(selector)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = scaleMShort(m)
	}
	return names, nil
}

// RunScaleMachineNamed resolves one protocol short name and runs its
// hosted-machine world — the tools' per-protocol entry point.
func RunScaleMachineNamed(protocol string, p Params, workers int) (ScaleMachinePoint, error) {
	method, err := scaleMMethod(protocol)
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	return RunScaleMachine(method, p, workers)
}

// RunScaleMachine builds one hosted-machine world for the method under
// p and runs it with the given intra-world worker count. Like RunScale,
// the result is byte-identical at every shards/workers combination.
func RunScaleMachine(method userdma.Method, p Params, workers int) (ScaleMachinePoint, error) {
	w, err := newScaleMachineWorld(method, p)
	if err != nil {
		return ScaleMachinePoint{}, err
	}
	w.prime()
	return w.run(workers)
}

// newScaleMachineWorld assembles the full hosted fleet — template,
// clones, ports, state hook, deliver hook — but does not prime arrivals
// or run; the split is what lets the snapshot tests capture the
// quiescent pre-traffic world through the cluster's own machinery.
func newScaleMachineWorld(method userdma.Method, p Params) (*scaleMWorld, error) {
	nodes, shards, arrival, tenants, bytes, dur, seed, err := scaleMachineParams(p)
	if err != nil {
		return nil, err
	}
	tpl, err := scaleMTemplateFor(method, nodes)
	if err != nil {
		return nil, err
	}
	base := net.Gigabit()
	c, err := net.NewShardedCluster(net.ShardedConfig{
		Nodes:     nodes,
		Shards:    shards,
		Link:      base,
		Seed:      seed,
		QueueHint: 4 * nodes / shards,
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
	fleet := make([]*machine.Machine, nodes)
	for n := range fleet {
		clock, events := c.NodeEnv(n)
		mm, err := machine.NewFromSnapshotHosted(tpl.snap, clock, events)
		if err != nil {
			return nil, fmt.Errorf("exp: scalemachine node %d: %w", n, err)
		}
		fleet[n] = mm
	}
	w := &scaleMWorld{
		c:        c,
		h:        tpl.h,
		p:        tpl.p,
		nodes:    nodes,
		protocol: scaleMShort(method),
		arrival:  arrival,
		tenants:  tenants,
		dur:      dur,
		// Per-tenant mean inter-arrival, integer picoseconds (same
		// arithmetic as the flat scale world).
		interval:  sim.Time(uint64(sim.Second) * uint64(tenants) / uint64(arrival)),
		boot:      tpl.boot,
		end:       tpl.boot + dur,
		bytes:     bytes,
		reqPA:     tpl.reqPA,
		respPA:    tpl.respPA,
		issueAt:   make([][]sim.Time, nodes),
		lats:      make([][]sim.Time, nodes),
		issued:    make([]uint64, nodes),
		completed: make([]uint64, nodes),
	}
	if w.interval <= 0 {
		return nil, fmt.Errorf("exp: scalemachine arrival rate %d/node too high for %d tenants (zero inter-arrival)", arrival, tenants)
	}
	for n, mm := range fleet {
		mm.Engine.SetRemoteHandler(&scaleMPort{w: w, node: n})
	}
	hm, err := net.NewHostedMachines(c, fleet)
	if err != nil {
		return nil, err
	}
	w.hm = hm
	// Chain the world's RPC bookkeeping behind the fleet snapshot: a
	// cluster Snapshot/Restore must rewind issue times and latency
	// samples with the machines, or a restored world double-counts.
	hm.Inner = w
	c.SetDeliver(w.deliver)
	return w, nil
}

// scaleMState is the world's own snapshot payload (chained through
// HostedMachines.Inner).
type scaleMState struct {
	issueAt   [][]sim.Time
	lats      [][]sim.Time
	issued    []uint64
	completed []uint64
	err       error
}

// SnapshotState implements net.ShardState.
func (w *scaleMWorld) SnapshotState() any {
	st := &scaleMState{
		issueAt:   make([][]sim.Time, w.nodes),
		lats:      make([][]sim.Time, w.nodes),
		issued:    append([]uint64(nil), w.issued...),
		completed: append([]uint64(nil), w.completed...),
		err:       w.err,
	}
	for n := 0; n < w.nodes; n++ {
		st.issueAt[n] = append([]sim.Time(nil), w.issueAt[n]...)
		st.lats[n] = append([]sim.Time(nil), w.lats[n]...)
	}
	return st
}

// RestoreState implements net.ShardState.
func (w *scaleMWorld) RestoreState(state any) error {
	st, ok := state.(*scaleMState)
	if !ok {
		return fmt.Errorf("exp: scalemachine world: foreign snapshot payload %T", state)
	}
	if len(st.issued) != w.nodes {
		return fmt.Errorf("exp: scalemachine world: snapshot of %d nodes onto %d", len(st.issued), w.nodes)
	}
	for n := 0; n < w.nodes; n++ {
		w.issueAt[n] = append(w.issueAt[n][:0], st.issueAt[n]...)
		w.lats[n] = append(w.lats[n][:0], st.lats[n]...)
	}
	copy(w.issued, st.issued)
	copy(w.completed, st.completed)
	w.err = st.err
	return nil
}

// prime schedules every tenant stream's first arrival past boot: clone
// substrates carry template-era timestamps, so no machine runs before
// the snapshot time. Draw order is fixed (node, tenant),
// layout-invariant.
func (w *scaleMWorld) prime() {
	for n := 0; n < w.nodes; n++ {
		for t := 0; t < w.tenants; t++ {
			w.scheduleArrival(n, w.jitter(n, w.boot))
		}
	}
}

// run drives the primed world to completion and folds the observation.
func (w *scaleMWorld) run(workers int) (ScaleMachinePoint, error) {
	if err := w.c.Run(par.Workers(workers), scaleMaxWindows); err != nil {
		return ScaleMachinePoint{}, err
	}
	if w.err != nil {
		return ScaleMachinePoint{}, w.err
	}
	return w.observe(), nil
}

func (w *scaleMWorld) jitter(n int, now sim.Time) sim.Time {
	return now + w.interval/2 + sim.Time(w.c.Rand(n).Uint64()%uint64(w.interval))
}

func (w *scaleMWorld) scheduleArrival(n int, at sim.Time) {
	w.c.At(n, at, func(now sim.Time) { w.arrive(n, now) })
}

// tag writes the RPC tag into the first word of a payload frame — the
// application-level "produce the message" step (free, like the flat
// model's payload; the DMA that moves it pays full price).
func (w *scaleMWorld) tag(m *machine.Machine, pa phys.Addr, seq uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return m.Mem.WriteBytes(pa, b[:])
}

// leaveEngine closes a machine-driving event: record the CPU high-water
// mark, then serialize the node behind its engine's last transfer End
// (the engine and payload buffers are a serial per-node resource).
func (w *scaleMWorld) leaveEngine(n int, m *machine.Machine) {
	w.hm.Leave(n)
	if t := m.Engine.LastTransfer(); t != nil {
		w.hm.Bump(n, t.End)
	}
}

// arrive is one RPC arrival on node n: keep the stream alive, pick a
// uniform remote peer, then run the protocol's REAL initiation sequence
// on the node's CPU. The engine ships the payload to the fabric at its
// computed End.
func (w *scaleMWorld) arrive(n int, now sim.Time) {
	rng := w.c.Rand(n)
	if next := w.jitter(n, now); next < w.end {
		w.scheduleArrival(n, next)
	}
	if w.err != nil {
		return
	}
	dst := rng.Intn(w.nodes - 1)
	if dst >= n {
		dst++ // uniform over the other nodes, never self
	}
	seq := uint64(len(w.issueAt[n]))
	w.issueAt[n] = append(w.issueAt[n], now)
	w.issued[n]++
	m := w.hm.Machine(n)
	w.hm.Floor(n, now)
	if err := w.tag(m, w.reqPA, seq); err != nil {
		w.fail(err)
		return
	}
	st, err := w.h.DirectDMA(&userdma.DirectCPU{M: m, P: w.p}, scaleMReqVA, scaleMPeerVA(dst), w.bytes)
	if err != nil {
		w.fail(fmt.Errorf("exp: scalemachine node %d request %d: %w", n, seq, err))
	} else if st == dma.StatusFailure {
		w.fail(fmt.Errorf("exp: scalemachine node %d request %d refused", n, seq))
	}
	w.leaveEngine(n, m)
}

// deliver is the fabric receive hook. A request lands in the server's
// memory, is validated by a real CPU load, and turns around a response
// through the server's own engine; a response lands, is read, and
// closes the latency sample.
func (w *scaleMWorld) deliver(m net.SMsg, now sim.Time) {
	if w.err != nil {
		return
	}
	d := m.Dst
	mm := w.hm.Machine(d)
	switch m.Kind {
	case scaleKindReq:
		w.hm.Floor(d, now)
		// The fabric lands the payload tag at the request landing page
		// (net.Fabric semantics: fabric address = destination physical
		// address), then the server validates it with a real load and
		// initiates the response DMA back to the client's response
		// landing page.
		if err := w.tag(mm, scaleMReqOff, m.Arg); err != nil {
			w.fail(err)
			return
		}
		if _, err := mm.CPU.Load(w.p.AddressSpace(), scaleMLandReqVA, phys.Size64); err != nil {
			w.fail(err)
			return
		}
		mm.CPU.Spin(scaleMSrvCycles)
		if err := w.tag(mm, w.respPA, m.Arg); err != nil {
			w.fail(err)
			return
		}
		st, err := w.h.DirectDMA(&userdma.DirectCPU{M: mm, P: w.p}, scaleMRespVA, scaleMPeerVA(m.Src)+scaleMPage, scaleMRespBytes)
		if err != nil {
			w.fail(fmt.Errorf("exp: scalemachine node %d response to %d: %w", d, m.Src, err))
		} else if st == dma.StatusFailure {
			w.fail(fmt.Errorf("exp: scalemachine node %d response to %d refused", d, m.Src))
		}
		w.leaveEngine(d, mm)
	case scaleKindResp:
		w.lats[d] = append(w.lats[d], now-w.issueAt[d][m.Arg])
		w.completed[d]++
		w.hm.Floor(d, now)
		if err := w.tag(mm, scaleMRespOff, m.Arg); err != nil {
			w.fail(err)
			return
		}
		// The client's completion read.
		if _, err := mm.CPU.Load(w.p.AddressSpace(), scaleMLandRespVA, phys.Size64); err != nil {
			w.fail(err)
			return
		}
		w.hm.Leave(d)
	}
}

// observe folds the finished world into a ScaleMachinePoint, node order
// throughout so the fold is layout-invariant.
func (w *scaleMWorld) observe() ScaleMachinePoint {
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
	latMin, latMax := w.c.LatencyBounds()
	pt := ScaleMachinePoint{
		ScalePoint: ScalePoint{
			Nodes:   w.nodes,
			Shards:  w.c.Config().Shards,
			Arrival: w.arrival,
			Tenants: w.tenants,
			Bytes:   w.bytes,
			Dur:     w.dur,

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
		},
		Protocol: w.protocol,
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
	for n := 0; n < w.nodes; n++ {
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
	if pt.Finish > pt.Boot {
		secs := float64(pt.Finish-pt.Boot) / 1e12
		pt.GoodputMBps = float64(completed) * float64(w.bytes) / secs / 1e6
		pt.GoodputRPCs = float64(completed) / secs
	}
	return pt
}

// scaleMachineCells expands the experiment: one cell per selected
// protocol, each a complete hosted-machine world. Like the flat scale
// experiment, p.Procs is the INTRA-world worker count; the protocol
// cells themselves also fan out on the cell runner.
func scaleMachineCells(p Params) ([]Cell, error) {
	nodes, shards, _, _, _, _, _, err := scaleMachineParams(p)
	if err != nil {
		return nil, err
	}
	methods, err := scaleMProtocols(p.Protocol)
	if err != nil {
		return nil, err
	}
	cfg := fmt.Sprintf("%dn/%ds", nodes, shards)
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Config: cfg, Run: func() (Obs, bool, error) {
			pt, err := RunScaleMachine(method, p, p.Procs)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", method.Name(), err)
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
