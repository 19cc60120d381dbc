// Package coll provides NOW collective operations — barrier and
// all-reduce sum — built exclusively on the paper's user-level primitives:
// fetch_and_add on a coordinator cell (atomic over the fabric, §3.5)
// for arrival counting, and single-word remote writes for release
// notification and result distribution. After setup there are no kernel
// crossings and no message-passing layer underneath: this is the
// "shared-memory abstraction on a Network of Workstations" usage the
// paper cites Telegraphos and SCI for.
//
// Topology: one rank per cluster node (rank i on node i). Rank 0's node
// hosts the coordinator cells. The release path is epoch-based: the
// last-arriving rank publishes the new epoch (and any result) to every
// rank's local notify page with remote writes; ranks spin on their own
// local memory — never across the wire.
package coll

import (
	"fmt"

	userdma "uldma/internal/core"
	"uldma/internal/net"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// Virtual layout inside every rank's process.
const (
	vaCoord  = vm.VAddr(0x0070_0000) // coordinator cells (local on rank 0, remote window elsewhere)
	vaNotify = vm.VAddr(0x0071_0000) // this rank's local notify page
	vaPeers  = vm.VAddr(0x0072_0000) // remote windows onto every rank's notify page
)

// Coordinator cell offsets (on rank 0's cells page).
const (
	cellArrived = 0 // arrival counter (fetch_and_add)
	cellAccum   = 8 // all-reduce accumulator
)

// Notify page offsets (per rank, local).
const (
	noteEpoch  = 0 // completed-collective epoch
	noteResult = 8 // all-reduce result
)

// Comm is one rank's handle on the communicator.
type Comm struct {
	size     int
	pageSize uint64
	epoch    uint64
}

// New wires a communicator over the cluster: procs[i] must live on
// cluster node i (one rank per node). It performs all setup-time kernel
// work and returns one Comm per rank.
func New(cluster *net.Cluster, procs []*proc.Process) ([]*Comm, error) {
	size := len(procs)
	if size < 1 || size > len(cluster.Nodes) {
		return nil, fmt.Errorf("coll: %d ranks for %d nodes", size, len(cluster.Nodes))
	}
	pageSize := cluster.Nodes[0].Cfg.PageSize

	// Rank 0 hosts the coordinator cells.
	coordMachine := cluster.Nodes[0]
	coordFrame, err := coordMachine.Kernel.AllocPage(procs[0].AddressSpace(), vaCoord, vm.Read|vm.Write)
	if err != nil {
		return nil, fmt.Errorf("coll: coordinator cells: %w", err)
	}
	if err := userdma.SetupAtomics(coordMachine, procs[0], vaCoord); err != nil {
		return nil, err
	}

	// Every rank: a local notify page...
	notifyFrames := make([]phys.Addr, size)
	for i := 0; i < size; i++ {
		m := cluster.Nodes[i]
		frame, err := m.Kernel.AllocPage(procs[i].AddressSpace(), vaNotify, vm.Read|vm.Write)
		if err != nil {
			return nil, fmt.Errorf("coll: rank %d notify page: %w", i, err)
		}
		notifyFrames[i] = frame
	}
	for i := 0; i < size; i++ {
		m := cluster.Nodes[i]
		// ...a window onto the coordinator cells (remote atomics for
		// ranks off node 0)...
		if i != 0 {
			if err := m.Kernel.MapRemote(procs[i], vaCoord, 0, coordFrame); err != nil {
				return nil, err
			}
			if err := userdma.SetupAtomics(m, procs[i], vaCoord); err != nil {
				return nil, err
			}
		}
		// ...and windows onto every rank's notify page (any rank can be
		// the releaser).
		for j := 0; j < size; j++ {
			va := vaPeers + vm.VAddr(uint64(j)*pageSize)
			if err := m.Kernel.MapRemote(procs[i], va, j, notifyFrames[j]); err != nil {
				return nil, fmt.Errorf("coll: rank %d window to rank %d: %w", i, j, err)
			}
		}
	}

	comms := make([]*Comm, size)
	for i := range comms {
		comms[i] = &Comm{size: size, pageSize: pageSize}
	}
	return comms, nil
}

// peerNote returns the VA of rank j's notify cell at offset off, through
// this rank's peer windows.
func peerNote(j int, off vm.VAddr, pageSize uint64) vm.VAddr {
	return vaPeers + vm.VAddr(uint64(j)*pageSize) + off
}

// Barrier blocks until every rank has entered it. The classic
// counter-plus-epoch scheme: arrive with fetch_and_add on the
// coordinator; the last arrival resets the counter and publishes the
// new epoch to everyone's local notify page.
func (c *Comm) Barrier(ctx *proc.Context) error {
	_, err := c.reduceInternal(ctx, 0, false)
	return err
}

// AllReduceSum adds v into the collective accumulator and returns the
// total across all ranks once everyone has contributed.
func (c *Comm) AllReduceSum(ctx *proc.Context, v uint64) (uint64, error) {
	return c.reduceInternal(ctx, v, true)
}

func (c *Comm) reduceInternal(ctx *proc.Context, v uint64, withResult bool) (uint64, error) {
	c.epoch++
	if withResult {
		if _, err := userdma.FetchAdd(ctx, vaCoord+cellAccum, v); err != nil {
			return 0, err
		}
	}
	old, err := userdma.FetchAdd(ctx, vaCoord+cellArrived, 1)
	if err != nil {
		return 0, err
	}
	if int(old) == c.size-1 {
		// Last arrival: collect, reset, release everyone.
		var total uint64
		if withResult {
			if total, err = userdma.FetchStore(ctx, vaCoord+cellAccum, 0); err != nil {
				return 0, err
			}
		}
		if _, err := userdma.FetchStore(ctx, vaCoord+cellArrived, 0); err != nil {
			return 0, err
		}
		for j := 0; j < c.size; j++ {
			if withResult {
				if err := ctx.Store(peerNote(j, noteResult, c.pageSize), phys.Size64, total); err != nil {
					return 0, err
				}
			}
			if err := ctx.Store(peerNote(j, noteEpoch, c.pageSize), phys.Size64, c.epoch); err != nil {
				return 0, err
			}
		}
		if err := ctx.MB(); err != nil {
			return 0, err
		}
	}
	// Everyone (including the releaser) waits for the epoch to land in
	// LOCAL memory — the spin never crosses the fabric.
	for {
		e, err := ctx.Load(vaNotify+noteEpoch, phys.Size64)
		if err != nil {
			return 0, err
		}
		if e >= c.epoch {
			break
		}
		ctx.Spin(400)
	}
	if !withResult {
		return 0, nil
	}
	return ctx.Load(vaNotify+noteResult, phys.Size64)
}
