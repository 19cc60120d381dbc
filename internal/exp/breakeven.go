package exp

// Experiment X6: the initiation-vs-transfer break-even study. The grid
// is method × size in method-major order — the same order the serial
// sweep measured and errored in.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "breakeven",
		Doc:   "X6 — initiation share of total DMA cost across transfer sizes, with crossover",
		Cells: breakEvenCells,
		Render: map[Format]RenderFunc{
			Text:     breakEvenText,
			Markdown: breakEvenMarkdown,
		},
		JSON: breakEvenJSON,
	})
}

// BreakEvenMethods is X6's method axis: the kernel baseline against
// the best user-level method.
func BreakEvenMethods() []userdma.Method {
	return []userdma.Method{userdma.KernelLevel{}, userdma.ExtShadow{}}
}

func breakEvenCells(p Params) ([]Cell, error) {
	var cells []Cell
	for _, method := range BreakEvenMethods() {
		// One pristine world per (method, config) family; every cell on
		// this row hydrates an independent clone from it instead of
		// rebuilding a machine — clones share memory copy-on-write and
		// are safe to expand in parallel.
		snap, err := userdma.NewWorld(userdma.ConfigFor(method))
		if err != nil {
			return nil, err
		}
		for _, size := range userdma.DefaultSizes {
			method, size := method, size
			cells = append(cells, Cell{Method: method.Name(), Size: size, Run: func() (Obs, bool, error) {
				pt, err := userdma.BreakEvenCellFrom(snap, method, size)
				if err != nil {
					return nil, false, fmt.Errorf("size %d: %w", size, err)
				}
				return Obs{pt}, false, nil
			}})
		}
	}
	return cells, nil
}

// MethodPoints is one method's slice of the ordered break-even grid.
type MethodPoints struct {
	Method userdma.Method
	Points []userdma.BreakEvenPoint
}

// breakEvenJSON writes the per-method break-even map the tools emit.
func breakEvenJSON(r *Result, p Params, d *Doc) {
	groups := BreakEvenGroups(r)
	d.BreakEven = make(map[string][]userdma.BreakEvenPoint, len(groups))
	for _, g := range groups {
		d.BreakEven[g.Method.Name()] = g.Points
	}
}

// BreakEvenGroups slices an ordered breakeven result per method, in
// the method-axis order.
func BreakEvenGroups(r *Result) []MethodPoints {
	methods := BreakEvenMethods()
	per := len(userdma.DefaultSizes)
	pts := Collect[userdma.BreakEvenPoint](r)
	if len(pts) != per*len(methods) {
		return nil
	}
	out := make([]MethodPoints, len(methods))
	for i, m := range methods {
		out[i] = MethodPoints{Method: m, Points: pts[i*per : (i+1)*per]}
	}
	return out
}

// sizeHeaders renders the sweep's size columns ("8B", ..., "64KiB").
func sizeHeaders(sizes []uint64) []string {
	out := make([]string, 0, len(sizes))
	for _, s := range sizes {
		if s >= 1024 {
			out = append(out, fmt.Sprintf("%dKiB", s/1024))
		} else {
			out = append(out, fmt.Sprintf("%dB", s))
		}
	}
	return out
}

func breakEvenText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Break-even sweep (X6) — initiation share of total DMA cost\n")
	tb := stats.NewTable(append([]string{"DMA algorithm"}, sizeHeaders(userdma.DefaultSizes)...)...)
	for _, g := range BreakEvenGroups(r) {
		row := []any{g.Method.Name()}
		for _, pt := range g.Points {
			row = append(row, fmt.Sprintf("%.0f%%", 100*pt.InitShare))
		}
		tb.AddRow(row...)
		if size, ok := userdma.Crossover(g.Points); ok {
			fmt.Fprintf(&b, "%-26s transfer outweighs initiation from %d bytes\n", g.Method.Name()+":", size)
		}
	}
	b.WriteByte('\n')
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func breakEvenMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## X6 — break-even: initiation share of total DMA cost\n")
	b.WriteString("\n| DMA algorithm |")
	for _, s := range userdma.DefaultSizes {
		fmt.Fprintf(&b, " %dB |", s)
	}
	b.WriteString("\n|---|")
	for range userdma.DefaultSizes {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	var crossovers []string
	for _, g := range BreakEvenGroups(r) {
		fmt.Fprintf(&b, "| %s |", g.Method.Name())
		for _, pt := range g.Points {
			fmt.Fprintf(&b, " %.0f%% |", 100*pt.InitShare)
		}
		b.WriteByte('\n')
		if size, ok := userdma.Crossover(g.Points); ok {
			crossovers = append(crossovers,
				fmt.Sprintf("%s: transfer outweighs initiation from %d bytes.", g.Method.Name(), size))
		}
	}
	b.WriteByte('\n')
	for _, line := range crossovers {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
