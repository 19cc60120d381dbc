package net

import (
	"strings"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

func clusterCfg() machine.Config {
	return machine.Alpha3000TC(dma.ModeExtended, 0)
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, clusterCfg(), Gigabit()); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster(machine.MaxNodes+1, clusterCfg(), Gigabit()); err == nil {
		t.Fatal("oversized cluster accepted")
	}
	if _, err := NewCluster(2, clusterCfg(), LinkConfig{Latency: 1}); err == nil {
		t.Fatal("zero-bandwidth link accepted")
	}
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	if len(c.Nodes) != 2 || c.Nodes[0].Clock != c.Nodes[1].Clock {
		t.Fatal("nodes must share the cluster clock")
	}
}

func TestMustNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCluster did not panic")
		}
	}()
	MustNewCluster(0, clusterCfg(), Gigabit())
}

// TestRemoteDMADelivers: node 0 DMAs a payload into node 1's memory
// through the extended-shadow user-level path.
func TestRemoteDMADelivers(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	n0, n1 := c.Nodes[0], c.Nodes[1]

	const srcVA, remVA = vm.VAddr(0x10000), vm.VAddr(0x20000)
	const remoteOff = phys.Addr(0x80000) // destination inside node 1's memory
	var status uint64
	sender := n0.NewProcess("sender", func(ctx *proc.Context) error {
		// Extended-shadow sequence against a remote destination page.
		if err := ctx.Store(kernel.ShadowVA(remVA), phys.Size64, 512); err != nil {
			return err
		}
		st, err := ctx.Load(kernel.ShadowVA(srcVA), phys.Size64)
		status = st
		return err
	})
	if _, _, err := n0.Kernel.AssignContext(sender); err != nil {
		t.Fatal(err)
	}
	frames, err := n0.SetupPages(sender, srcVA, 1, vm.Read|vm.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Kernel.MapRemote(sender, remVA, 1, remoteOff); err != nil {
		t.Fatal(err)
	}
	if err := n0.Kernel.MapShadow(sender, remVA); err != nil {
		t.Fatal(err)
	}
	n0.Mem.Fill(frames[0], 512, 0x5a)

	if err := c.RunRoundRobin(4, 100_000); err != nil {
		t.Fatal(err)
	}
	if sender.Err() != nil || status == dma.StatusFailure {
		t.Fatalf("sender err=%v status=%#x", sender.Err(), status)
	}
	c.Settle()
	got, err := n1.Mem.ReadBytes(remoteOff, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0x5a {
			t.Fatalf("remote memory = %v...", got[:8])
		}
	}
	if c.Fabric.Counters().Messages != 1 || c.Fabric.Counters().Bytes != 512 {
		t.Fatalf("fabric stats = %+v", c.Fabric.Counters())
	}
}

// TestRemoteWordWrite: a plain store to a remote-mapped page becomes a
// single-word remote write (the doorbell primitive).
func TestRemoteWordWrite(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	n0, n1 := c.Nodes[0], c.Nodes[1]
	const remVA = vm.VAddr(0x20000)
	sender := n0.NewProcess("sender", func(ctx *proc.Context) error {
		if err := ctx.Store(remVA+64, phys.Size64, 0xfeedface); err != nil {
			return err
		}
		return ctx.MB()
	})
	if err := n0.Kernel.MapRemote(sender, remVA, 1, 0x80000); err != nil {
		t.Fatal(err)
	}
	if err := c.RunRoundRobin(4, 10_000); err != nil {
		t.Fatal(err)
	}
	if sender.Err() != nil {
		t.Fatal(sender.Err())
	}
	c.Settle()
	v, err := n1.Mem.Read(0x80000+64, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface {
		t.Fatalf("remote word = %#x", v)
	}
}

// TestRemoteReadRejected: loads from remote pages are not supported.
func TestRemoteReadRejected(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	n0 := c.Nodes[0]
	const remVA = vm.VAddr(0x20000)
	var loadErr error
	sender := n0.NewProcess("sender", func(ctx *proc.Context) error {
		_, loadErr = ctx.Load(remVA, phys.Size64)
		return nil
	})
	if err := n0.Kernel.MapRemote(sender, remVA, 1, 0x80000); err != nil {
		t.Fatal(err)
	}
	// MapRemote maps write-only, so the load faults at translation —
	// before it could even reach the fabric.
	if err := c.RunRoundRobin(4, 10_000); err != nil {
		t.Fatal(err)
	}
	if loadErr == nil {
		t.Fatal("remote read succeeded")
	}
}

// TestLinkTimingOrdersDelivery: the flag written after the payload must
// not arrive before it (single FIFO fabric path + later send time).
func TestLinkTimingOrdersDelivery(t *testing.T) {
	link := LinkConfig{Latency: 5 * sim.Microsecond, Bandwidth: 125_000_000}
	c := MustNewCluster(2, clusterCfg(), link)
	n0, n1 := c.Nodes[0], c.Nodes[1]
	const remVA = vm.VAddr(0x20000)
	sender := n0.NewProcess("sender", func(ctx *proc.Context) error {
		if err := ctx.Store(remVA, phys.Size64, 1); err != nil {
			return err
		}
		if err := ctx.MB(); err != nil {
			return err
		}
		if err := ctx.Store(remVA+8, phys.Size64, 2); err != nil {
			return err
		}
		return ctx.MB()
	})
	if err := n0.Kernel.MapRemote(sender, remVA, 1, 0x80000); err != nil {
		t.Fatal(err)
	}
	start := c.Clock.Now()
	if err := c.RunRoundRobin(4, 10_000); err != nil {
		t.Fatal(err)
	}
	// Nothing arrives before link latency has passed.
	if c.Clock.Now()-start < link.Latency {
		if v, _ := n1.Mem.Read(0x80000, phys.Size64); v != 0 {
			t.Fatal("payload arrived faster than link latency")
		}
	}
	c.Settle()
	v1, _ := n1.Mem.Read(0x80000, phys.Size64)
	v2, _ := n1.Mem.Read(0x80000+8, phys.Size64)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("remote words = %d, %d", v1, v2)
	}
}

// TestPingPong: the motivating NOW workload — two nodes bounce a
// message via remote writes, each polling its local mailbox.
func TestPingPong(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	const rounds = 4
	const mailboxOff = phys.Addr(0x80000)
	const remVA, boxVA = vm.VAddr(0x20000), vm.VAddr(0x30000)

	mkNode := func(me int, initiator bool) *proc.Process {
		m := c.Nodes[me]
		peer := 1 - me
		p := m.NewProcess("player", func(ctx *proc.Context) error {
			next := uint64(1)
			if initiator {
				if err := ctx.Store(remVA, phys.Size64, next); err != nil {
					return err
				}
				if err := ctx.MB(); err != nil {
					return err
				}
				next++
			}
			for i := 0; i < rounds; i++ {
				// Poll the local mailbox for the expected value.
				for {
					v, err := ctx.Load(boxVA, phys.Size64)
					if err != nil {
						return err
					}
					if v >= next-1 && v != 0 {
						break
					}
					ctx.Spin(500)
				}
				// Bounce back value+1.
				if err := ctx.Store(remVA, phys.Size64, next); err != nil {
					return err
				}
				if err := ctx.MB(); err != nil {
					return err
				}
				next++
			}
			return nil
		})
		if err := m.Kernel.MapRemote(p, remVA, peer, mailboxOff); err != nil {
			t.Fatal(err)
		}
		if err := m.Kernel.MapFrame(p.AddressSpace(), boxVA, mailboxOff, vm.Read); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0 := mkNode(0, true)
	p1 := mkNode(1, false)
	if err := c.RunRoundRobin(2, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if p0.Err() != nil || p1.Err() != nil {
		t.Fatalf("p0=%v p1=%v", p0.Err(), p1.Err())
	}
	if got := c.Fabric.Counters().Messages; got < 2*rounds {
		t.Fatalf("only %d messages crossed the fabric", got)
	}
}

// TestRemoteAtomics: processes on two nodes bump a counter that lives
// in node 1's memory — node 0 through remote atomics over the fabric,
// node 1 locally — and the count is exact.
func TestRemoteAtomics(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	n0, n1 := c.Nodes[0], c.Nodes[1]
	const (
		cellVA  = vm.VAddr(0x50000)
		cellOff = phys.Addr(0x80000)
		perProc = 25
	)
	mk := func(m *machine.Machine) *proc.Process {
		return m.NewProcess("adder", func(ctx *proc.Context) error {
			for i := 0; i < perProc; i++ {
				old, err := ctx.Swap(kernel.AtomicVA(cellVA, dma.AtomicAdd), phys.Size64, 1)
				if err != nil {
					return err
				}
				_ = old
			}
			return nil
		})
	}
	// Node 1: the cell is local.
	p1 := mk(n1)
	if err := n1.Kernel.MapFrame(p1.AddressSpace(), cellVA, cellOff, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := n1.Kernel.MapAtomic(p1, cellVA); err != nil {
		t.Fatal(err)
	}
	// Node 0: the cell is remote (write-only window into node 1).
	p0 := mk(n0)
	if err := n0.Kernel.MapRemote(p0, cellVA, 1, cellOff); err != nil {
		t.Fatal(err)
	}
	if err := n0.Kernel.MapAtomic(p0, cellVA); err != nil {
		t.Fatal(err)
	}

	start := c.Clock.Now()
	if err := c.RunRoundRobin(3, 10_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*proc.Process{p0, p1} {
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
	}
	v, err := n1.Mem.Read(cellOff, phys.Size64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*perProc {
		t.Fatalf("counter = %d, want %d", v, 2*perProc)
	}
	// Each remote atomic paid at least a fabric round trip.
	if elapsed := c.Clock.Now() - start; elapsed < sim.Time(perProc)*2*Gigabit().Latency {
		t.Fatalf("elapsed %v too fast for %d remote round trips", elapsed, perProc)
	}
}

// TestRemoteAtomicValidation: bad nodes are rejected, and a fabric-less
// engine refuses remote atomic targets.
func TestRemoteAtomicValidation(t *testing.T) {
	c := MustNewCluster(1, clusterCfg(), Gigabit())
	if _, err := c.Fabric.RMWRemote(7, 0, dma.AtomicAdd, phys.Size64, 1); err == nil {
		t.Fatal("atomic to nonexistent node accepted")
	}
	if _, err := c.Fabric.RMWRemote(0, phys.Addr(c.Nodes[0].Mem.Size()), dma.AtomicAdd, phys.Size64, 1); err == nil {
		t.Fatal("atomic past memory accepted")
	}
	// An engine with no fabric rejects remote atomic targets outright.
	m := machine.MustNew(clusterCfg())
	cfg := m.Engine.Config()
	if _, _, err := m.Engine.RMW(0, cfg.AtomicShadow(cfg.RemoteAddr(1, 0x100), dma.AtomicAdd), phys.Size64, 1); err == nil {
		t.Fatal("remote atomic without fabric accepted")
	}
}

func TestDeliverValidation(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	if err := c.Fabric.Deliver(5, 0, []byte{1}, 0); err == nil ||
		!strings.Contains(err.Error(), "nonexistent node") {
		t.Fatalf("bad node: %v", err)
	}
	if err := c.Fabric.Deliver(1, phys.Addr(c.Nodes[1].Mem.Size()), []byte{1}, 0); err == nil ||
		!strings.Contains(err.Error(), "overruns") {
		t.Fatalf("bad address: %v", err)
	}
	if c.Fabric.Counters().Dropped != 2 {
		t.Fatalf("dropped = %d", c.Fabric.Counters().Dropped)
	}
}

// TestFanInEightNodes: seven nodes remote-write distinct words into
// node 0 concurrently; FIFO per destination and exact delivery hold at
// the largest cluster the remote window supports.
func TestFanInEightNodes(t *testing.T) {
	c := MustNewCluster(machine.MaxNodes, clusterCfg(), Gigabit())
	const remVA = vm.VAddr(0x20000)
	const base = phys.Addr(0x80000)
	const wordsEach = 4
	var writers []*proc.Process
	for i := 1; i < machine.MaxNodes; i++ {
		i := i
		p := c.Nodes[i].NewProcess("writer", func(ctx *proc.Context) error {
			for k := 0; k < wordsEach; k++ {
				off := vm.VAddr((i*wordsEach + k) * 8)
				if err := ctx.Store(remVA+off, phys.Size64, uint64(i)<<32|uint64(k)); err != nil {
					return err
				}
				if err := ctx.MB(); err != nil {
					return err
				}
			}
			return nil
		})
		if err := c.Nodes[i].Kernel.MapRemote(p, remVA, 0, base); err != nil {
			t.Fatal(err)
		}
		writers = append(writers, p)
	}
	if err := c.RunRoundRobin(2, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range writers {
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
	}
	c.Settle()
	for i := 1; i < machine.MaxNodes; i++ {
		for k := 0; k < wordsEach; k++ {
			addr := base + phys.Addr((i*wordsEach+k)*8)
			v, err := c.Nodes[0].Mem.Read(addr, phys.Size64)
			if err != nil {
				t.Fatal(err)
			}
			if v != uint64(i)<<32|uint64(k) {
				t.Fatalf("node %d word %d = %#x", i, k, v)
			}
		}
	}
	if got := c.Fabric.Counters().Messages.Value(); got != uint64((machine.MaxNodes-1)*wordsEach) {
		t.Fatalf("fabric messages = %d", got)
	}
}

func TestRunPolicyCountMismatch(t *testing.T) {
	c := MustNewCluster(2, clusterCfg(), Gigabit())
	if err := c.Run([]proc.Policy{proc.NewRoundRobin(1)}, 10); err == nil {
		t.Fatal("policy count mismatch accepted")
	}
}

func TestClusterSlotBudget(t *testing.T) {
	c := MustNewCluster(1, clusterCfg(), Gigabit())
	c.Nodes[0].NewProcess("spin", func(ctx *proc.Context) error {
		for {
			ctx.Spin(1)
		}
	})
	if err := c.RunRoundRobin(1, 100); err == nil {
		t.Fatal("budget exhaustion not reported")
	}
	c.Nodes[0].Runner.Shutdown()
}

func TestLinkPresets(t *testing.T) {
	if Gigabit().Bandwidth <= ATM155().Bandwidth {
		t.Fatal("gigabit should be faster than ATM")
	}
	if ATM155().Latency == 0 || Gigabit().Latency == 0 {
		t.Fatal("links need nonzero latency")
	}
}
