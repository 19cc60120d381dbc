package main

// The initiate workload: the paper's own loop. Single machines at the
// Alpha 3000/TurboChannel preset issue zero-length initiations, so no
// payload moves and host time lands in the scheduler, CPU, bus, engine
// decode and kernel syscalls. One pass runs:
//
//   - the Table 1 rows and the comparators through core.MeasureMethod,
//     fast-forward as shipped;
//   - one multiprogrammed world per Table 1 method plus PAL code: more
//     guest processes than register contexts (the rest fall back to
//     the kernel path) on a small round-robin quantum, so context
//     switches split initiation sequences; afterwards a library
//     process initiates through Handle.DirectDMA on the bare CPU;
//   - a ring world whose processes post depth-32 descriptor batches;
//   - a core.RingChurnBench grid over the three arbitration policies.
//
// One op is one initiation: a single-shot initiation or one ring
// descriptor. The seed sets the guest processes' spawn order (which of
// them win register contexts and where their think time falls) and the
// address schedule of every initiation in the worlds built here.

import (
	"fmt"
	"math"

	userdma "uldma/internal/core"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

var initiateWorkload = &workload{
	name:   "initiate",
	build:  initiateBuild,
	pass:   initiatePass,
	layers: initiateLayers,
}

// Guest address map: two source and two destination pages per process,
// so the seeded address schedule also moves TLB pressure.
const (
	srcVA     = vm.VAddr(0x10000)
	dstVA     = vm.VAddr(0x30000)
	ringVA    = vm.VAddr(0x50000)
	dataPages = 2
	ringDepth = 32
)

// mixMethods are the methods of the multiprogrammed worlds: Table 1's
// four rows plus PAL code, the one comparator safe under preemption
// without a kernel modification.
func mixMethods() []userdma.Method {
	return append(userdma.Methods(), userdma.PALCode{})
}

// offset draws one seeded address in a data region: a page and a
// 16-byte-aligned offset within it.
func offset(r *rng, pageSize uint64) vm.VAddr {
	return vm.VAddr(uint64(r.intn(dataPages))*pageSize + uint64(r.intn(int(pageSize/16)))*16)
}

// mixWorld is one multiprogrammed machine.
type mixWorld struct {
	m        *machine.Machine
	method   userdma.Method
	procs    []*proc.Process
	lib      *proc.Process // exits at once; initiates directly after Run
	ok, fail int64
}

// buildMix assembles the multiprogrammed world for method without
// running it.
func buildMix(method userdma.Method, o options, tr *tracer) (*mixWorld, error) {
	tok := tr.begin("machine.New")
	m, err := machine.New(userdma.ConfigFor(method))
	tr.end(tok)
	if err != nil {
		return nil, err
	}
	w := &mixWorld{m: m, method: method}
	r := newRNG(o.seed, digest(uint64(len(method.Name())), uint64(method.EngineMode())))
	ps := m.Cfg.PageSize
	for _, i := range r.perm(o.sc.mixProcs) {
		// Process i's think time between initiations depends on i, so
		// the seeded spawn order decides who holds a register context
		// and where preemptions split the sequences.
		think := int64(i%4) * 7
		pr := newRNG(o.seed, uint64(i)+1)
		var h *userdma.Handle
		p := m.NewProcess(fmt.Sprintf("g%d", i), func(c *proc.Context) error {
			for k := 0; k < o.sc.mixIters; k++ {
				src, dst := srcVA+offset(pr, ps), dstVA+offset(pr, ps)
				tok := tr.begin("core.Handle.DMA")
				st, err := h.DMA(c, src, dst, 0)
				tr.end(tok)
				if err != nil {
					return err
				}
				if st == userdma.StatusFailure {
					w.fail++
				} else {
					w.ok++
				}
				c.Spin(think)
			}
			return nil
		})
		if h, err = attachOrKernel(method, m, p); err != nil {
			return nil, err
		}
		if err := setupData(m, p); err != nil {
			return nil, err
		}
		w.procs = append(w.procs, p)
	}
	w.lib = m.NewProcess("lib", func(*proc.Context) error { return nil })
	return w, nil
}

// attachOrKernel attaches method, falling back to the kernel path when
// every register context is taken (§3.2's prescription).
func attachOrKernel(method userdma.Method, m *machine.Machine, p *proc.Process) (*userdma.Handle, error) {
	h, err := method.Attach(m, p)
	if err != nil {
		return userdma.KernelLevel{}.Attach(m, p)
	}
	return h, nil
}

func setupData(m *machine.Machine, p *proc.Process) error {
	if _, err := m.SetupPages(p, srcVA, dataPages, vm.Read|vm.Write); err != nil {
		return err
	}
	_, err := m.SetupPages(p, dstVA, dataPages, vm.Read|vm.Write)
	return err
}

// run schedules the guests, then initiates from the library process
// through Handle.DirectDMA (every guest has exited, so its context is
// free). Methods without a direct path (PAL code) skip that phase.
func (w *mixWorld) run(o options, tr *tracer) error {
	tok := tr.begin("machine.Run")
	err := w.m.Run(proc.NewRoundRobin(o.sc.quantum), 1<<32)
	tr.end(tok)
	if err != nil {
		return err
	}
	for _, p := range w.procs {
		if p.Err() != nil {
			w.fail += int64(o.sc.mixIters) // the guest stopped early
		}
	}
	if _, ok := w.method.(userdma.PALCode); ok {
		return nil
	}
	h, err := attachOrKernel(w.method, w.m, w.lib)
	if err != nil {
		return err
	}
	if err := setupData(w.m, w.lib); err != nil {
		return err
	}
	d := &userdma.DirectCPU{M: w.m, P: w.lib}
	r := newRNG(o.seed, 0xd1ec7)
	ps := w.m.Cfg.PageSize
	for k := 0; k < o.sc.directIters; k++ {
		src, dst := srcVA+offset(r, ps), dstVA+offset(r, ps)
		tok := tr.begin("core.Handle.DirectDMA")
		st, err := h.DirectDMA(d, src, dst, 0)
		tr.end(tok)
		if err != nil || st == userdma.StatusFailure {
			w.fail++
		} else {
			w.ok++
		}
	}
	w.m.Settle()
	return nil
}

// ringWorld is one machine whose processes batch initiations through
// depth-32 descriptor rings.
type ringWorld struct {
	m      *machine.Machine
	procs  []*proc.Process
	posted int64
}

func buildRing(o options, tr *tracer) (*ringWorld, error) {
	tok := tr.begin("machine.New")
	m, err := machine.New(userdma.ConfigFor(userdma.KeyBased{}))
	tr.end(tok)
	if err != nil {
		return nil, err
	}
	w := &ringWorld{m: m}
	for _, i := range newRNG(o.seed, 0x1a6).perm(o.sc.ringProcs) {
		pr := newRNG(o.seed, 0x1a60+uint64(i))
		var rh *userdma.RingHandle
		p := m.NewProcess(fmt.Sprintf("ring%d", i), func(c *proc.Context) error {
			src, dst := rh.Frames(0)[0], rh.Frames(1)[0]
			for b := 0; b < o.sc.ringBatches; b++ {
				for s := uint64(0); s < ringDepth; s++ {
					off := phys.Addr(pr.intn(512) * 16)
					tok := tr.begin("core.RingHandle.Post")
					err := rh.Post(c, s, src+off, dst+off, 0)
					tr.end(tok)
					if err != nil {
						return err
					}
				}
				tok := tr.begin("core.RingHandle.Doorbell")
				err := rh.Doorbell(c, ringDepth)
				tr.end(tok)
				if err != nil {
					return err
				}
				w.posted += ringDepth
				if err := rh.WaitDrain(c, 1<<20); err != nil {
					return err
				}
			}
			return nil
		})
		if rh, err = userdma.NewRing(m, p, ringVA, ringDepth); err != nil {
			return nil, err
		}
		for _, va := range []vm.VAddr{srcVA, dstVA} {
			if _, err := rh.AddBuffer(va, 1); err != nil {
				return nil, err
			}
		}
		if err := rh.Arm(); err != nil {
			return nil, err
		}
		w.procs = append(w.procs, p)
	}
	return w, nil
}

func (w *ringWorld) run(o options, tr *tracer) error {
	tok := tr.begin("machine.Run")
	err := w.m.Run(proc.NewRoundRobin(o.sc.quantum), 1<<32)
	tr.end(tok)
	if err != nil {
		return err
	}
	w.m.Settle()
	return nil
}

// initiateBuild builds every world a pass builds itself, plus one
// machine per core.MeasureMethod configuration.
func initiateBuild(o options, tr *tracer) error {
	for _, method := range userdma.AllMethods() {
		if _, err := machine.New(userdma.ConfigFor(method)); err != nil {
			return fmt.Errorf("%s: %w", method.Name(), err)
		}
	}
	for _, method := range mixMethods() {
		if _, err := buildMix(method, o, tr); err != nil {
			return fmt.Errorf("%s: %w", method.Name(), err)
		}
	}
	_, err := buildRing(o, tr)
	return err
}

// table1Order is the ordering Table 1 must keep: ext-shadow < key-based
// < repeated passing < kernel.
var table1Order = []string{"Ext. Shadow Addressing", "Key-based DMA", "Rep. Passing of Arguments", "Kernel-level DMA"}

func initiatePass(o options, tr *tracer, _ int) (passResult, error) {
	pr := passResult{counts: map[string]float64{}}
	var simPs float64 // simulated initiation time over the whole mix

	// Table 1 and the comparators.
	ff0 := userdma.FastForwardEngagements()
	means := map[string]sim.Time{}
	var errPct float64
	methods := userdma.AllMethods()
	for _, method := range methods {
		cfg := userdma.ConfigFor(method)
		res, err := span(tr, "core.MeasureMethod", func() (userdma.InitiationResult, error) {
			return userdma.MeasureMethod(method, cfg, o.sc.table1Iters)
		})
		if err != nil {
			return pr, fmt.Errorf("%s: %w", method.Name(), err)
		}
		n := int64(res.Iterations)
		pr.ops += n
		simPs += float64(res.Mean) * float64(n)
		pr.cells = append(pr.cells, cell{"table1/" + res.Method, n, digest(uint64(res.Mean), uint64(res.Min), uint64(res.Max))})
		means[res.Method] = res.Mean
		if res.PaperMean > 0 {
			errPct = math.Max(errPct, 100*math.Abs(float64(res.Mean-res.PaperMean))/float64(res.PaperMean))
		}
	}
	pr.counts["core.ff_engaged_ratio"] = float64(userdma.FastForwardEngagements()-ff0) / float64(len(methods))
	for i := 1; i < len(table1Order); i++ {
		if !(means[table1Order[i-1]] < means[table1Order[i]]) {
			pr.failed += int64(4 * o.sc.table1Iters)
			break
		}
	}

	// The multiprogrammed worlds.
	for _, method := range mixMethods() {
		w, err := buildMix(method, o, tr)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", method.Name(), err)
		}
		t0 := w.m.Clock.Now()
		if err := w.run(o, tr); err != nil {
			return pr, fmt.Errorf("%s: %w", method.Name(), err)
		}
		n := w.ok + w.fail
		pr.ops += n
		pr.failed += w.fail
		simPs += float64(w.m.Clock.Now() - t0)
		pr.cells = append(pr.cells, cell{"mix/" + method.Name(), n, worldDigest(w.m)})
		addObs(pr.counts, w.m)
		pr.counts["obs.ops"] += float64(n)
	}

	// The ring world.
	rw, err := buildRing(o, tr)
	if err != nil {
		return pr, fmt.Errorf("ring: %w", err)
	}
	t0 := rw.m.Clock.Now()
	if err := rw.run(o, tr); err != nil {
		return pr, fmt.Errorf("ring: %w", err)
	}
	want := int64(o.sc.ringProcs * o.sc.ringBatches * ringDepth)
	walked, _ := rw.m.Obs.Get("dma.ring_posted")
	pr.ops += want
	pr.failed += want - min(want, int64(walked), rw.posted)
	simPs += float64(rw.m.Clock.Now() - t0)
	pr.cells = append(pr.cells, cell{"ring", want, worldDigest(rw.m)})
	addObs(pr.counts, rw.m)
	pr.counts["obs.ops"] += float64(want)

	// The churn grid. Doorbells dropped under the steal policy are the
	// policy's modeled cost, not failures: an op here is a descriptor
	// the engine walked.
	for _, policy := range []kernel.CtxPolicy{kernel.CtxFIFO, kernel.CtxSteal, kernel.CtxYield} {
		for _, procs := range o.sc.churnProcs {
			res, err := span(tr, "core.RingChurnBench", func() (userdma.RingChurnResult, error) {
				return userdma.RingChurnBench(policy, procs, 4, o.sc.churnBatches)
			})
			if err != nil {
				return pr, fmt.Errorf("churn %v/%d: %w", policy, procs, err)
			}
			n := int64(res.Posted)
			pr.ops += n
			simPs += float64(res.Elapsed)
			pr.cells = append(pr.cells, cell{fmt.Sprintf("churn/%v/%d", policy, procs), n, res.Fingerprint})
			pr.counts["kernel.ctx_waits"] += float64(res.Waits)
			pr.counts["kernel.ctx_steals"] += float64(res.Steals)
			pr.counts["dma.key_mismatches"] += float64(res.Dropped)
			pr.counts["churn.ops"] += float64(n)
		}
	}

	pr.sim = map[string]metric{
		"t1_err_pct":  {value: errPct, n: int64(4 * o.sc.table1Iters)},
		"sim_init_ns": {value: simPs / float64(pr.ops) / 1e3, n: pr.ops},
	}
	return pr, nil
}

func initiateLayers(ref passResult, tr *tracer, n int) map[string]float64 {
	c := ref.counts
	l := merge(machineLayers(c), hostLayers(tr, c, n))
	// Register-context contention, and the stale-key doorbells it
	// drops, happen in the churn grid: charge them per op of every world
	// they were counted on.
	ops := c["obs.ops"] + c["churn.ops"]
	for _, k := range []string{"kernel.ctx_waits", "kernel.ctx_steals", "dma.key_mismatches"} {
		l[k+"_per_op"] = ratio(c[k], ops)
	}
	l["core.ff_engaged_ratio"] = c["core.ff_engaged_ratio"]
	return l
}
