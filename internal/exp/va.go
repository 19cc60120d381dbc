package exp

// The virtual-address DMA experiments (internal/iommu + the engine's
// VA plane + the kernel pager):
//
//   - vasweep: Table 1's four initiation methods measured through the
//     physical shadow window AND through the IOMMU's VA window (the
//     ordering must survive translation), plus the IOTLB hit-rate
//     sweep — full-page streams over a growing device-page working set
//     against a fixed-size IOTLB.
//   - paging: the kernel pager's residency budget oversubscribed by a
//     growing working set, under each of the three mid-transfer fault
//     recovery policies (stall-and-resolve, bounce-buffer, kernel-
//     assisted pin), scored by goodput and tail latency.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "vasweep",
		Doc:   "virtual-address DMA: Table 1 through the IOMMU + IOTLB hit-rate sweep",
		Cells: vaSweepCells,
		Render: map[Format]RenderFunc{
			Text:     vaSweepText,
			Markdown: vaSweepMarkdown,
		},
		JSON: func(r *Result, _ Params, d *Doc) {
			d.VASweep = Collect[userdma.VACompareRow](r)
			d.IOTLB = Collect[userdma.IOTLBPoint](r)
		},
	})
	Register(&Experiment{
		Name:  "paging",
		Doc:   "device paging: goodput/latency vs oversubscription under stall/bounce/pin recovery",
		Cells: pagingCells,
		Render: map[Format]RenderFunc{
			Text:     pagingText,
			Markdown: pagingMarkdown,
		},
		JSON: func(r *Result, _ Params, d *Doc) { d.Paging = Collect[userdma.PagingResult](r) },
	})
}

// VASweepEntries is the default IOTLB size the hit-rate sweep runs
// against — small enough that the canonical working sets straddle the
// knee. Params.TLB (dmabench -tlb) overrides it.
const VASweepEntries = 8

func vaEntries(p Params) int {
	if p.TLB > 0 {
		return p.TLB
	}
	return VASweepEntries
}

// VASweepPages is the device-page working-set axis of the hit-rate
// sweep: inside the IOTLB, at it, and past it.
func VASweepPages() []int { return []int{2, 4, 8, 16, 32} }

// vaSweepTransfers is the full-page streams per hit-rate cell. Fixed
// (not p.Iters): each transfer is a full 8 KiB walk with completion
// wait, two decimal orders costlier than a zero-length initiation.
const vaSweepTransfers = 128

func vaSweepCells(p Params) ([]Cell, error) {
	var cells []Cell
	// Axis 1: the Table 1 grid, shadow- and VA-initiated per method.
	for _, method := range userdma.Methods() {
		method := method
		cells = append(cells, Cell{
			Method: method.Name(),
			Config: "table1",
			Run: func() (Obs, bool, error) {
				row, err := userdma.MeasureVACompare(method, p.Iters)
				if err != nil {
					return nil, false, err
				}
				return Obs{row}, false, nil
			},
		})
	}
	// Axis 2: the IOTLB hit-rate sweep.
	entries := vaEntries(p)
	for _, pages := range VASweepPages() {
		pages := pages
		cells = append(cells, Cell{
			Method: "Ext. Shadow Addressing",
			Config: fmt.Sprintf("%d-entry iotlb", entries),
			Size:   uint64(pages),
			Run: func() (Obs, bool, error) {
				pt, err := userdma.MeasureIOTLB(pages, entries, vaSweepTransfers)
				if err != nil {
					return nil, false, fmt.Errorf("iotlb %d pages: %w", pages, err)
				}
				return Obs{pt}, false, nil
			},
		})
	}
	return cells, nil
}

func vaSweepText(r *Result, p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Virtual-address DMA — Table 1 through the IOMMU (%d initiations/row)\n", p.Iters)
	fmt.Fprintf(&b, "machine: %s + IOMMU (per-context device page tables, ASID-tagged IOTLB)\n\n", MachineName())
	tb := stats.NewTable("method", "shadow (µs)", "va (µs)", "paper (µs)")
	for _, row := range Collect[userdma.VACompareRow](r) {
		paper := "-"
		if row.PaperMean > 0 {
			paper = fmt.Sprintf("%.1f", row.PaperMean.Microseconds())
		}
		tb.AddRow(row.Method,
			fmt.Sprintf("%.3f", row.ShadowMean.Microseconds()),
			fmt.Sprintf("%.3f", row.VAMean.Microseconds()),
			paper)
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nIOTLB hit rate — %d-entry IOTLB, cyclic full-page streams (%d transfers/point)\n\n",
		vaEntries(p), vaSweepTransfers)
	tb = stats.NewTable("working set (pages)", "hits", "misses", "hit rate", "per-transfer (µs)")
	for _, pt := range Collect[userdma.IOTLBPoint](r) {
		tb.AddRow(pt.Pages, pt.Hits, pt.Misses,
			fmt.Sprintf("%.3f", pt.HitRate),
			fmt.Sprintf("%.2f", pt.PerTransfer.Microseconds()))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func vaSweepMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## Virtual-address DMA — Table 1 through the IOMMU\n")
	b.WriteString("\n| method | shadow (µs) | va (µs) | paper (µs) |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, row := range Collect[userdma.VACompareRow](r) {
		paper := "-"
		if row.PaperMean > 0 {
			paper = fmt.Sprintf("%.1f", row.PaperMean.Microseconds())
		}
		fmt.Fprintf(&b, "| %s | %.3f | %.3f | %s |\n",
			row.Method, row.ShadowMean.Microseconds(), row.VAMean.Microseconds(), paper)
	}
	fmt.Fprintf(&b, "\n### IOTLB hit rate (%d entries, cyclic full-page streams)\n", vaEntries(p))
	b.WriteString("\n| working set (pages) | hit rate | per-transfer (µs) |\n")
	b.WriteString("|---|---|---|\n")
	for _, pt := range Collect[userdma.IOTLBPoint](r) {
		fmt.Fprintf(&b, "| %d | %.3f | %.2f |\n",
			pt.Pages, pt.HitRate, pt.PerTransfer.Microseconds())
	}
	return b.String()
}

// PagingPolicies is the paging experiment's recovery-policy axis.
func PagingPolicies() []dma.RecoveryPolicy {
	return []dma.RecoveryPolicy{dma.RecoverStall, dma.RecoverBounce, dma.RecoverPin}
}

// PagingPages is the working-set axis (source device pages; +1 for the
// destination). Against pagingBudget resident pages it spans under-
// subscription through 4x oversubscription.
func PagingPages() []int { return []int{4, 8, 16, 32} }

const (
	pagingBudget    = 8
	pagingTransfers = 64
)

func pagingCells(Params) ([]Cell, error) {
	var cells []Cell
	for _, policy := range PagingPolicies() {
		for _, pages := range PagingPages() {
			policy, pages := policy, pages
			cells = append(cells, Cell{
				Method: policy.String(),
				Size:   uint64(pages),
				Config: fmt.Sprintf("budget %d", pagingBudget),
				Run: func() (Obs, bool, error) {
					r, err := userdma.PagingBench(policy, pages, pagingBudget, pagingTransfers)
					if err != nil {
						return nil, false, fmt.Errorf("%v/%d pages: %w", policy, pages, err)
					}
					return Obs{r}, false, nil
				},
			})
		}
	}
	return cells, nil
}

func pagingText(r *Result, _ Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Device paging — %d resident device pages, cyclic full-page streams (%d transfers/cell)\n",
		pagingBudget, pagingTransfers)
	fmt.Fprintf(&b, "machine: %s + IOMMU + kernel pager (LRU eviction, %s page-in)\n\n",
		MachineName(), "100µs")
	tb := stats.NewTable("policy", "pages", "oversub", "goodput (MB/s)", "p50 (µs)", "p99 (µs)", "faults", "stalls", "bounced", "pins", "evictions")
	for _, pt := range Collect[userdma.PagingResult](r) {
		tb.AddRow(pt.Policy, pt.Pages,
			fmt.Sprintf("%.2fx", pt.Oversub),
			fmt.Sprintf("%.1f", pt.GoodputMBps),
			fmt.Sprintf("%.1f", pt.P50.Microseconds()),
			fmt.Sprintf("%.1f", pt.P99.Microseconds()),
			pt.Faults, pt.Stalls, pt.Bounced, pt.Pins, pt.Evictions)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func pagingMarkdown(r *Result, _ Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n## Device paging — %d resident pages under stall/bounce/pin recovery\n", pagingBudget)
	b.WriteString("\n| policy | pages | oversub | goodput (MB/s) | p50 (µs) | p99 (µs) | evictions |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, pt := range Collect[userdma.PagingResult](r) {
		fmt.Fprintf(&b, "| %s | %d | %.2fx | %.1f | %.1f | %.1f | %d |\n",
			pt.Policy, pt.Pages, pt.Oversub, pt.GoodputMBps,
			pt.P50.Microseconds(), pt.P99.Microseconds(), pt.Evictions)
	}
	return b.String()
}
