package exp

// The batched-initiation experiments over the descriptor-ring path
// (internal/dma ring engine + internal/core RingHandle client):
//
//   - ringdepth: amortized initiation cost and goodput versus ring
//     depth, per user-level protocol, against that protocol's own
//     unbatched per-transfer baseline (depth 0).
//   - ringchurn: 4 register contexts oversubscribed by dozens of
//     ring-using processes under the kernel's three arbitration
//     policies (FIFO wait, LRU key-stealing, cooperative yield).

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/kernel"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "ringdepth",
		Doc:   "batched initiation: per-transfer cost and goodput vs descriptor-ring depth",
		Cells: ringDepthCells,
		Render: map[Format]RenderFunc{
			Text:     ringDepthText,
			Markdown: ringDepthMarkdown,
		},
	})
	Register(&Experiment{
		Name:  "ringchurn",
		Doc:   "register-context oversubscription: ring processes vs contexts under fifo/steal/yield",
		Cells: ringChurnCells,
		Render: map[Format]RenderFunc{
			Text:     ringChurnText,
			Markdown: ringChurnMarkdown,
		},
	})
}

// RingProtocols is the ringdepth method axis: the user-level protocols
// (kernel-level DMA has no user-mapped doorbell page to batch through).
func RingProtocols() []userdma.Method {
	return []userdma.Method{
		userdma.ExtShadow{},
		userdma.RepeatedPassing{Len: 5, Barriers: true},
		userdma.KeyBased{},
	}
}

// RingDepths is the ringdepth depth axis; 0 is the unbatched baseline
// (the protocol's own initiation sequence, no ring).
func RingDepths() []uint64 { return []uint64{0, 1, 2, 4, 8, 16, 32, 64} }

func ringDepthCells(p Params) ([]Cell, error) {
	var cells []Cell
	for _, method := range RingProtocols() {
		for _, depth := range RingDepths() {
			method, depth := method, depth
			cells = append(cells, Cell{
				Method: method.Name(),
				Size:   depth,
				Config: fmt.Sprintf("depth %d", depth),
				Run: func() (Obs, bool, error) {
					if depth == 0 {
						r, err := userdma.MeasureMethod(method, userdma.ConfigFor(method), p.Iters)
						if err != nil {
							return nil, false, fmt.Errorf("%s baseline: %w", method.Name(), err)
						}
						base := userdma.RingDepthResult{
							Method:  method.Name(),
							Depth:   0,
							Batches: r.Iterations,
							Posted:  uint64(r.Iterations),
							PerInit: r.Mean,
						}
						return Obs{base}, false, nil
					}
					r, err := userdma.MeasureRingDepth(method, p.Iters, depth)
					if err != nil {
						return nil, false, fmt.Errorf("%s depth %d: %w", method.Name(), depth, err)
					}
					return Obs{r}, false, nil
				},
			})
		}
	}
	return cells, nil
}

// RingDepth runs the "ringdepth" experiment on p.Procs workers.
func RingDepth(iters, procs int) ([]userdma.RingDepthResult, error) {
	r, err := RunNamed("ringdepth", Params{Iters: iters, Procs: procs})
	if err != nil {
		return nil, err
	}
	return RingPoints(r), nil
}

// RingPoints collects a ringdepth result's points in cell order, each
// joined to its protocol's depth-0 baseline (Baseline, Speedup).
func RingPoints(r *Result) []userdma.RingDepthResult {
	points := Collect[userdma.RingDepthResult](r)
	base := make(map[string]sim.Time)
	for _, pt := range points {
		if pt.Depth == 0 {
			base[pt.Method] = pt.PerInit
		}
	}
	for i := range points {
		pt := &points[i]
		if bl, ok := base[pt.Method]; ok {
			pt.Baseline = bl
			if pt.PerInit > 0 {
				pt.Speedup = float64(bl) / float64(pt.PerInit)
			}
		}
	}
	return points
}

func ringDepthText(r *Result, p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batched initiation — descriptor-ring depth sweep (%d initiations/point)\n", p.Iters)
	fmt.Fprintf(&b, "machine: %s\n", MachineName())
	b.WriteString("depth 0 = the protocol's own unbatched initiation sequence\n\n")
	tb := stats.NewTable("protocol", "depth", "per-init (µs)", "vs unbatched", "goodput (MB/s)", "doorbells", "completions")
	for _, pt := range RingPoints(r) {
		speedup := "1.00x"
		if pt.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.Speedup)
		}
		goodput := "-"
		if pt.GoodputMBps > 0 {
			goodput = fmt.Sprintf("%.1f", pt.GoodputMBps)
		}
		tb.AddRow(pt.Method, pt.Depth,
			fmt.Sprintf("%.3f", pt.PerInit.Microseconds()),
			speedup, goodput, pt.Doorbells, pt.Completions)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func ringDepthMarkdown(r *Result, _ Params) string {
	var b strings.Builder
	b.WriteString("\n## Ring — batched initiation vs descriptor-ring depth\n")
	b.WriteString("\n| protocol | depth | per-init (µs) | vs unbatched | goodput (MB/s) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, pt := range RingPoints(r) {
		speedup := pt.Speedup
		if speedup == 0 {
			speedup = 1
		}
		goodput := "-"
		if pt.GoodputMBps > 0 {
			goodput = fmt.Sprintf("%.1f", pt.GoodputMBps)
		}
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.2fx | %s |\n",
			pt.Method, pt.Depth, pt.PerInit.Microseconds(), speedup, goodput)
	}
	return b.String()
}

// RingPolicies is the ringchurn policy axis.
func RingPolicies() []kernel.CtxPolicy {
	return []kernel.CtxPolicy{kernel.CtxFIFO, kernel.CtxSteal, kernel.CtxYield}
}

// RingChurnProcs is the ringchurn oversubscription axis (the engine has
// ringChurnContexts register contexts).
func RingChurnProcs() []int { return []int{24, 96, 192} }

const (
	ringChurnContexts = 4
	ringChurnBatches  = 3
)

func ringChurnCells(Params) ([]Cell, error) {
	var cells []Cell
	for _, policy := range RingPolicies() {
		for _, procs := range RingChurnProcs() {
			policy, procs := policy, procs
			cells = append(cells, Cell{
				Method: policy.String(),
				Size:   uint64(procs),
				Config: fmt.Sprintf("%d procs", procs),
				Run: func() (Obs, bool, error) {
					r, err := userdma.RingChurnBench(policy, procs, ringChurnContexts, ringChurnBatches)
					if err != nil {
						return nil, false, fmt.Errorf("%v/%d procs: %w", policy, procs, err)
					}
					return Obs{r}, false, nil
				},
			})
		}
	}
	return cells, nil
}

// RingChurn runs the "ringchurn" experiment on procs workers.
func RingChurn(procs int) ([]userdma.RingChurnResult, error) {
	r, err := RunNamed("ringchurn", Params{Procs: procs})
	if err != nil {
		return nil, err
	}
	return Collect[userdma.RingChurnResult](r), nil
}

func ringChurnText(r *Result, _ Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Register-context churn — %d contexts oversubscribed, depth-8 rings, %d batches/process\n",
		ringChurnContexts, ringChurnBatches)
	fmt.Fprintf(&b, "machine: %s\n\n", MachineName())
	tb := stats.NewTable("policy", "procs", "acquire (µs)", "doorbells", "posted", "dropped", "steals", "waits", "elapsed")
	for _, pt := range Collect[userdma.RingChurnResult](r) {
		tb.AddRow(pt.Policy, pt.Procs,
			fmt.Sprintf("%.2f", pt.MeanAcquire.Microseconds()),
			pt.Doorbells, pt.Posted, pt.Dropped, pt.Steals, pt.Waits, pt.Elapsed)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func ringChurnMarkdown(r *Result, _ Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n## Ring churn — %d contexts oversubscribed\n", ringChurnContexts)
	b.WriteString("\n| policy | procs | acquire (µs) | doorbells | dropped | steals | waits |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, pt := range Collect[userdma.RingChurnResult](r) {
		fmt.Fprintf(&b, "| %s | %d | %.2f | %d | %d | %d | %d |\n",
			pt.Policy, pt.Procs, pt.MeanAcquire.Microseconds(),
			pt.Doorbells, pt.Dropped, pt.Steals, pt.Waits)
	}
	return b.String()
}
