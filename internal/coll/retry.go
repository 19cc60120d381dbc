package coll

// Fault-tolerant collectives. The base Comm's release path is a
// single-word remote write per rank — the cheapest possible notify, but
// on a faulty link it can be LOST, leaving a rank spinning on its local
// epoch cell forever. Resilient keeps the same fast path and adds a
// bounded fallback built on the one primitive the fault plane never
// touches: remote atomics (net.FaultPlane documents why — they model
// Telegraphos' synchronous locked transactions, the reliable control
// channel).
//
// Protocol: the releaser publishes the epoch and result to coordinator
// cells with fetch_and_store (reliable) BEFORE firing the best-effort
// notify writes. A waiter spins locally for SpinSlots slots; if the
// notify never lands it probes the coordinator cells with fetch_and_add
// of 0 (an atomic read over the fabric), up to Retries times. Result
// cells are stable while stale: epoch N's cells cannot be overwritten
// until every rank has entered collective N+1, which requires every
// rank to have finished N first.

import (
	"errors"

	userdma "uldma/internal/core"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
)

// Published coordinator cells (reliable copies of the notify payload).
const (
	cellEpoch  = 16 // last released epoch
	cellResult = 24 // that epoch's result value
)

// noteCheck is the extra notify word binding (epoch, result): the
// epoch and result notify writes are judged INDEPENDENTLY by a fault
// plane, so a waiter can observe the new epoch while the result write
// was dropped — and would silently read a stale result. The check word
// commits to both; on mismatch the waiter distrusts the local copy and
// takes the reliable probe path.
const noteCheck = 16

// mix binds an epoch to its result value (SplitMix64 finalizer over
// both words). A stale value from any other epoch cannot match.
func mix(epoch, result uint64) uint64 {
	z := epoch*0x9e3779b97f4a7c15 + result
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ErrGaveUp reports that a resilient collective exhausted its probe
// budget without observing the release epoch.
var ErrGaveUp = errors.New("coll: release not observed within the retry budget")

// ResilientCounters counts recovery activity in obs cells.
type ResilientCounters struct {
	// Fallbacks is the number of waits whose local spin timed out (a
	// notify write was presumably lost).
	Fallbacks obs.Counter
	// Probes is the number of reliable coordinator reads issued.
	Probes obs.Counter
}

// Resilient wraps a Comm with bounded-retry collectives that survive
// lost, duplicated and reordered notify writes. Zero-valued knobs get
// defaults; on a fault-free fabric the fast path is identical to the
// base Comm's (local spin, no extra fabric traffic).
type Resilient struct {
	c *Comm
	// SpinSlots bounds the local notify spin before falling back to the
	// reliable probe path (default 200).
	SpinSlots int
	// Retries bounds the reliable probes per wait (default 32).
	Retries int

	ctr ResilientCounters
}

// NewResilient wraps comm. Each rank wraps its own Comm handle.
func NewResilient(comm *Comm) *Resilient { return &Resilient{c: comm} }

// Counters returns the recovery counters.
func (r *Resilient) Counters() ResilientCounters { return r.ctr }

// Rank returns the wrapped communicator's rank.
func (r *Resilient) Rank() int { return r.c.rank }

// Size returns the number of ranks.
func (r *Resilient) Size() int { return r.c.size }

// Barrier blocks until every rank has entered it, surviving lost
// release notifications.
func (r *Resilient) Barrier(ctx *proc.Context) error {
	_, err := r.collective(ctx, 0, false)
	return err
}

// AllReduceSum adds v into the collective accumulator and returns the
// total across all ranks, surviving lost release notifications.
func (r *Resilient) AllReduceSum(ctx *proc.Context, v uint64) (uint64, error) {
	return r.collective(ctx, v, true)
}

func (r *Resilient) collective(ctx *proc.Context, v uint64, withResult bool) (uint64, error) {
	c := r.c
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
		// Last arrival: collect, reset, publish reliably, then notify.
		var total uint64
		if withResult {
			if total, err = userdma.FetchStore(ctx, vaCoord+cellAccum, 0); err != nil {
				return 0, err
			}
		}
		if _, err := userdma.FetchStore(ctx, vaCoord+cellArrived, 0); err != nil {
			return 0, err
		}
		// Authoritative copies first — result before epoch, so any probe
		// that sees the new epoch also sees its result.
		if _, err := userdma.FetchStore(ctx, vaCoord+cellResult, total); err != nil {
			return 0, err
		}
		if _, err := userdma.FetchStore(ctx, vaCoord+cellEpoch, c.epoch); err != nil {
			return 0, err
		}
		// Best-effort notify writes: single-word remote stores, judged by
		// any attached fault plane and possibly lost. The check word lets
		// waiters detect a torn (partially delivered) notify.
		for j := 0; j < c.size; j++ {
			if withResult {
				if err := ctx.Store(peerNote(j, noteResult, c.pageSize), phys.Size64, total); err != nil {
					return 0, err
				}
				if err := ctx.Store(peerNote(j, noteCheck, c.pageSize), phys.Size64, mix(c.epoch, total)); err != nil {
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
	return r.await(ctx, withResult)
}

// await waits for the current epoch's release: fast local spin first,
// then the bounded reliable-probe fallback.
func (r *Resilient) await(ctx *proc.Context, withResult bool) (uint64, error) {
	c := r.c
	spins := r.SpinSlots
	if spins <= 0 {
		spins = 200
	}
	retries := r.Retries
	if retries <= 0 {
		retries = 32
	}
	local := func() (bool, uint64, error) {
		e, err := ctx.Load(vaNotify+noteEpoch, phys.Size64)
		if err != nil || e < c.epoch {
			return false, 0, err
		}
		if !withResult {
			return true, 0, nil
		}
		out, err := ctx.Load(vaNotify+noteResult, phys.Size64)
		if err != nil {
			return false, 0, err
		}
		chk, err := ctx.Load(vaNotify+noteCheck, phys.Size64)
		if err != nil {
			return false, 0, err
		}
		if chk != mix(c.epoch, out) {
			// Torn notify: the epoch write landed but the result (or
			// check) write was lost — the local copy is stale. Keep
			// waiting; the probe fallback reads the reliable cells.
			return false, 0, nil
		}
		return true, out, nil
	}
	for i := 0; i < spins; i++ {
		ok, out, err := local()
		if err != nil || ok {
			return out, err
		}
		ctx.Spin(400)
	}
	// The notify write was (presumably) lost: fall back to reading the
	// published cells over the reliable atomic channel.
	r.ctr.Fallbacks.Inc()
	for attempt := 0; attempt < retries; attempt++ {
		r.ctr.Probes.Inc()
		e, err := userdma.FetchAdd(ctx, vaCoord+cellEpoch, 0)
		if err != nil {
			return 0, err
		}
		if e >= c.epoch {
			if !withResult {
				return 0, nil
			}
			return userdma.FetchAdd(ctx, vaCoord+cellResult, 0)
		}
		// Not released yet (slow peers, not a lost notify): give the
		// fast path another bounded chance between probes.
		for i := 0; i < spins; i++ {
			ok, out, lerr := local()
			if lerr != nil || ok {
				return out, lerr
			}
			ctx.Spin(400)
		}
	}
	return 0, ErrGaveUp
}
