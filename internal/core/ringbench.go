package userdma

// Measurement harnesses for the batched descriptor-ring path (the
// ringdepth and ringchurn experiments in internal/exp).
//
// MeasureRingDepth is §3.4's methodology transplanted onto the ring:
// zero-length transfers (arguments only, no data on the bus), addresses
// varied between iterations to defeat write-buffer coalescing, the
// whole run scored as simulated time per initiated transfer. The batch
// is the unit of work: fill depth descriptors with cached stores, one
// MB, one doorbell store. Dividing by depth gives the amortized
// initiation cost that Table 1 reports per-transfer for the unbatched
// protocols.
//
// RingChurnBench oversubscribes a handful of register contexts with
// dozens-hundreds of ring-using processes (§3.2's "if every context is
// taken...") and scores the kernel's arbitration policies by acquire
// latency and doorbells lost to revocation.

import (
	"encoding/json"
	"fmt"

	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/stats"
	"uldma/internal/vm"
)

// RingDepthResult is one (protocol, depth) point of the ringdepth
// experiment. Depth 0 marks the unbatched baseline: the protocol's own
// per-transfer initiation sequence, measured by MeasureMethod.
type RingDepthResult struct {
	Method  string
	Depth   uint64
	Batches int      // timed batches rung
	Posted  uint64   // descriptors posted in timed batches
	PerInit sim.Time `json:"PerInitPs"` // amortized initiation cost per descriptor
	// Baseline and Speedup join the row to its protocol's depth-0
	// baseline (PerInit there, and that over PerInit here). A single
	// measurement leaves them zero; the ringdepth experiment fills them
	// across its grid (exp.RingPoints).
	Baseline sim.Time `json:"BaselinePs"`
	Speedup  float64
	// GoodputMBps is the payload-phase delivery rate (1 KiB payloads,
	// doorbell-to-drain), 0 for the depth-0 baseline.
	GoodputMBps float64 `json:",omitempty"`
	Doorbells   uint64  // engine doorbell stores over the whole run
	Completions uint64  // completion records written back
	Fingerprint uint64  // digest of the final machine fingerprint
}

// MarshalJSON writes the row with Fingerprint as hex.
func (r RingDepthResult) MarshalJSON() ([]byte, error) {
	type wire RingDepthResult
	return json.Marshal(struct {
		wire
		Fingerprint string
	}{wire(r), hexDigest(r.Fingerprint)})
}

// hexDigest renders a state digest for a JSON row as a 16-digit hex
// string, so no JSON reader rounds it through a float64.
func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// fingerprintDigest folds a machine fingerprint into one word (FNV-1a
// over the words) so renderers and goldens can assert end-state
// determinism without carrying 55 columns.
func fingerprintDigest(f machine.Fingerprint) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, w := range f {
		h ^= w
		h *= 0x100000001b3
	}
	return h
}

// MeasureRingDepth measures batched initiation for method's engine mode
// at the given ring depth: iters zero-length descriptors posted in
// full-depth batches, then a short 1 KiB-payload goodput phase. Use
// MeasureMethod for the depth-0 (unbatched) baseline.
func MeasureRingDepth(method Method, iters int, depth uint64) (RingDepthResult, error) {
	cfg := ConfigFor(method)
	m, err := machine.New(cfg)
	if err != nil {
		return RingDepthResult{}, err
	}
	res := RingDepthResult{Method: method.Name(), Depth: depth}

	batches := iters / int(depth)
	if batches < 1 {
		batches = 1
	}
	const ringVA, srcVA, dstVA = vm.VAddr(0x40000), vm.VAddr(0x10000), vm.VAddr(0x20000)
	var rh *RingHandle
	var total sim.Time
	p := m.NewProcess("ringbench", func(c *proc.Context) error {
		src, dst := rh.Frames(0)[0], rh.Frames(1)[0]
		// One throwaway batch warms the TLB, descriptor cache lines and
		// engine state, exactly like MeasureMethod's warm iteration.
		for s := uint64(0); s < depth; s++ {
			if err := rh.Post(c, s, src, dst, 0); err != nil {
				return err
			}
		}
		if err := rh.Doorbell(c, depth); err != nil {
			return err
		}
		for b := 0; b < batches; b++ {
			start := m.Clock.Now()
			for s := uint64(0); s < depth; s++ {
				// Vary addresses between iterations, as in the paper's
				// loop, so write-buffer coalescing cannot flatter the
				// descriptor stores.
				off := phys.Addr((uint64(b)*depth + s) % 64 * 16)
				if err := rh.Post(c, s, src+off, dst+off, 0); err != nil {
					return err
				}
			}
			if err := rh.Doorbell(c, depth); err != nil {
				return err
			}
			total += m.Clock.Now() - start
		}
		res.Batches = batches
		res.Posted = uint64(batches) * depth
		res.PerInit = total / sim.Time(res.Posted)

		// Goodput phase: drain the zero-length backlog, then time four
		// full-depth batches of 1 KiB payloads doorbell-to-drain.
		if err := rh.WaitDrain(c, 1<<20); err != nil {
			return err
		}
		const payload, goodputBatches = uint64(1024), 4
		t0 := m.Clock.Now()
		for b := 0; b < goodputBatches; b++ {
			for s := uint64(0); s < depth; s++ {
				off := phys.Addr(s % 8 * payload)
				if err := rh.Post(c, s, src+off, dst+off, payload); err != nil {
					return err
				}
			}
			if err := rh.Doorbell(c, depth); err != nil {
				return err
			}
			if err := rh.WaitDrain(c, 1<<20); err != nil {
				return err
			}
		}
		elapsed := m.Clock.Now() - t0
		moved := float64(goodputBatches) * float64(depth) * float64(payload)
		res.GoodputMBps = moved * float64(sim.Second) / float64(elapsed) / 1e6
		return nil
	})
	if rh, err = NewRing(m, p, ringVA, depth); err != nil {
		return res, err
	}
	if _, err := rh.AddBuffer(srcVA, 1); err != nil {
		return res, err
	}
	if _, err := rh.AddBuffer(dstVA, 1); err != nil {
		return res, err
	}
	if err := rh.Arm(); err != nil {
		return res, err
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		return res, err
	}
	if p.Err() != nil {
		return res, p.Err()
	}
	es := m.Engine.Counters()
	res.Doorbells, res.Completions = es.RingDoorbells.Value(), es.RingCompletions.Value()
	res.Fingerprint = fingerprintDigest(m.Fingerprint())
	return res, nil
}

// RingChurnResult is one (policy, procs) point of the ringchurn
// experiment.
type RingChurnResult struct {
	Policy      string
	Procs       int
	Contexts    int
	Doorbells   uint64   // batches the engine accepted
	Posted      uint64   // descriptors the engine walked
	Dropped     uint64   // doorbells lost to key revocation (steal policy)
	Steals      uint64   // LRU revocations performed
	Waits       uint64   // processes queued for a context
	MeanAcquire sim.Time `json:"MeanAcquirePs"`
	Elapsed     sim.Time `json:"ElapsedPs"`
	Fingerprint uint64
}

// MarshalJSON writes the row with Fingerprint as hex.
func (r RingChurnResult) MarshalJSON() ([]byte, error) {
	type wire RingChurnResult
	return json.Marshal(struct {
		wire
		Fingerprint string
	}{wire(r), hexDigest(r.Fingerprint)})
}

// RingChurnBench oversubscribes contexts register contexts with procs
// ring-using processes under the given arbitration policy. Each process
// runs batchesPerProc batches of depth-8 zero-length descriptors,
// re-acquiring (and under CtxYield, releasing) its context around every
// batch. A short scheduling quantum forces real interleaving so holders
// are descheduled while holding — the condition the policies exist for.
func RingChurnBench(policy kernel.CtxPolicy, procs, contexts, batchesPerProc int) (RingChurnResult, error) {
	method := KeyBased{} // keyed mode: revocation-safe (stale doorbells drop)
	cfg := ConfigFor(method)
	cfg.MemSize = 16 << 20 // 3 pages per process needs more than the 4 MiB preset
	cfg.Engine.MemSize = uint64(cfg.MemSize)
	cfg.Engine.Contexts = contexts
	m, err := machine.New(cfg)
	if err != nil {
		return RingChurnResult{}, err
	}
	res := RingChurnResult{Policy: policy.String(), Procs: procs, Contexts: contexts}

	const (
		depth = uint64(8)
		think = int64(2000) // cycles of non-DMA work between batches
	)
	type worker struct {
		rh *RingHandle
		p  *proc.Process
	}
	// One shared acquire-latency sample: worlds are single-goroutine, so
	// guest bodies append in a deterministic interleaving order.
	var acq stats.Sample
	workers := make([]*worker, procs)
	for i := 0; i < procs; i++ {
		w := &worker{}
		workers[i] = w
		// Distinct VAs per process are unnecessary (separate address
		// spaces) but make traces easier to read.
		const ringVA, srcVA, dstVA = vm.VAddr(0x40000), vm.VAddr(0x10000), vm.VAddr(0x20000)
		p := m.NewProcess(fmt.Sprintf("churn%d", i), func(c *proc.Context) error {
			for b := 0; b < batchesPerProc; b++ {
				t0 := m.Clock.Now()
				for !w.rh.Armed() {
					_, ok, err := m.Kernel.AcquireContext(c.Process(), policy)
					if err != nil {
						return err
					}
					if !ok {
						// Queued and blocked: the block takes effect at
						// the next instruction boundary; retry on wake.
						c.Spin(1)
						continue
					}
					if err := w.rh.Arm(); err != nil {
						return err
					}
				}
				acq.Add(m.Clock.Now() - t0)
				// Frames are only valid once armed (and stable across
				// re-arms: registration returns the same allocations).
				src, dst := w.rh.Frames(0)[0], w.rh.Frames(1)[0]
				for s := uint64(0); s < depth; s++ {
					off := phys.Addr((uint64(b)*depth + s) % 64 * 16)
					if err := w.rh.Post(c, s, src+off, dst+off, 0); err != nil {
						return err
					}
				}
				// Fire and forget: under CtxSteal the context may have
				// been revoked since Armed() — the stale-keyed doorbell
				// is then silently dropped, which is the cost the
				// Dropped column reports.
				if err := w.rh.Doorbell(c, depth); err != nil {
					return err
				}
				m.Kernel.TouchContext(c.Process())
				if policy == kernel.CtxYield {
					// The doorbell is still posted in the write buffer;
					// flush it before giving the context (and its key)
					// away, or the batch would drain against a revoked
					// key and be dropped.
					if err := c.MB(); err != nil {
						return err
					}
					m.Kernel.ReleaseContext(c.Process())
				}
				c.Spin(think)
			}
			// Flush the last posted doorbell so the engine sees every
			// batch before the run's counters are read.
			return c.MB()
		})
		w.p = p
		if w.rh, err = NewRing(m, p, ringVA, depth); err != nil {
			return res, err
		}
		if _, err := w.rh.AddBuffer(srcVA, 1); err != nil {
			return res, err
		}
		if _, err := w.rh.AddBuffer(dstVA, 1); err != nil {
			return res, err
		}
	}
	// A 12-instruction quantum forces real interleaving: holders are
	// descheduled mid-batch while others want their context, which is
	// the condition the arbitration policies exist for.
	if err := m.Run(proc.NewRoundRobin(12), 1<<32); err != nil {
		return res, err
	}
	for i, w := range workers {
		if err := w.p.Err(); err != nil {
			return res, fmt.Errorf("churn%d: %w", i, err)
		}
	}
	es := m.Engine.Counters()
	ks := m.Kernel.Counters()
	res.Doorbells, res.Posted = es.RingDoorbells.Value(), es.RingPosted.Value()
	res.Dropped = es.KeyMismatches.Value()
	res.Steals, res.Waits = ks.CtxSteals.Value(), ks.CtxWaits.Value()
	res.MeanAcquire = acq.Mean()
	res.Elapsed = m.Clock.Now()
	res.Fingerprint = fingerprintDigest(m.Fingerprint())
	return res, nil
}
