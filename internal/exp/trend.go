package exp

// Experiment X7: the hardware-generation trend behind the paper's §1
// motivation. The grid flattens, per era, two initiation measurements
// plus one break-even cell per size — the same cell layout (and
// therefore the same error order) as the serial sweep.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "trend",
		Doc:   "X7 — kernel vs user-level initiation across 1994/1997/2000 hardware generations",
		Cells: trendCells,
		Render: map[Format]RenderFunc{
			Text:     trendText,
			Markdown: trendMarkdown,
		},
		JSON: func(r *Result, p Params, d *Doc) { d.Trend = TrendPoints(r, p) },
	})
}

// trendPerEra is the cell count per era: kernel initiation, user
// initiation, then one break-even cell per size.
func trendPerEra(p Params) int { return 2 + len(p.sizes()) }

func trendCells(p Params) ([]Cell, error) {
	eras := userdma.TrendEras()
	sizes := p.sizes()
	perEra := trendPerEra(p)
	cells := make([]Cell, len(eras)*perEra)
	for i := range cells {
		i := i
		era := eras[i/perEra]
		switch k := i % perEra; k {
		case 0:
			cells[i] = Cell{Config: era.Name, Method: (userdma.KernelLevel{}).Name(), Run: func() (Obs, bool, error) {
				r, err := userdma.MeasureMethod(userdma.KernelLevel{}, era.Config(dma.ModePaired, 0), p.Iters)
				if err != nil {
					return nil, false, fmt.Errorf("%s/kernel: %w", era.Name, err)
				}
				return Obs{r}, false, nil
			}}
		case 1:
			cells[i] = Cell{Config: era.Name, Method: (userdma.ExtShadow{}).Name(), Run: func() (Obs, bool, error) {
				r, err := userdma.MeasureMethod(userdma.ExtShadow{}, era.Config(dma.ModeExtended, 0), p.Iters)
				if err != nil {
					return nil, false, fmt.Errorf("%s/user: %w", era.Name, err)
				}
				return Obs{r}, false, nil
			}}
		default:
			size := sizes[k-2]
			cells[i] = Cell{Config: era.Name, Method: (userdma.KernelLevel{}).Name(), Size: size, Run: func() (Obs, bool, error) {
				pt, err := userdma.BreakEvenCell(userdma.KernelLevel{}, era.Config(dma.ModePaired, 0), size)
				if err != nil {
					return nil, false, err
				}
				return Obs{pt}, false, nil
			}}
		}
	}
	return cells, nil
}

// TrendPoints folds an ordered trend result into one point per era.
func TrendPoints(r *Result, p Params) []userdma.TrendPoint {
	sizes := p.sizes()
	perEra := trendPerEra(p)
	var out []userdma.TrendPoint
	for base := 0; base+perEra <= len(r.Cells); base += perEra {
		pts := make([]userdma.BreakEvenPoint, len(sizes))
		for s := range sizes {
			pts[s] = r.Cells[base+2+s].Obs[0].(userdma.BreakEvenPoint)
		}
		cross, _ := userdma.Crossover(pts)
		out = append(out, userdma.TrendPoint{
			Era:             r.Cells[base].Cell.Config,
			KernelInit:      r.Cells[base].Obs[0].(userdma.InitiationResult).Mean,
			UserInit:        r.Cells[base+1].Obs[0].(userdma.InitiationResult).Mean,
			KernelCrossover: cross,
		})
	}
	return out
}

func trendText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Hardware-generation trend (X7) — the motivating §1/§2.2 argument\n")
	tb := stats.NewTable("era", "kernel init", "ext-shadow init", "ratio", "kernel break-even")
	for _, pt := range TrendPoints(r, p) {
		tb.AddRow(pt.Era, pt.KernelInit, pt.UserInit,
			stats.Ratio(pt.KernelInit, pt.UserInit),
			fmt.Sprintf("%dB", pt.KernelCrossover))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	b.WriteString("Processors and buses speed up; the trap's cycle count grows — so the\n")
	b.WriteString("kernel path's break-even keeps receding while user-level initiation\n")
	b.WriteString("rides the hardware. Exactly the trend the paper opens with.\n")
	b.WriteByte('\n')
	return b.String()
}

func trendMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## X7 — hardware-generation trend (the §1 motivation)\n")
	b.WriteString("\n| era | kernel init | ext-shadow init | ratio | kernel break-even |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, pt := range TrendPoints(r, p) {
		fmt.Fprintf(&b, "| %s | %v | %v | %.0fx | %dB |\n", pt.Era, pt.KernelInit, pt.UserInit,
			float64(pt.KernelInit)/float64(pt.UserInit), pt.KernelCrossover)
	}
	return b.String()
}
