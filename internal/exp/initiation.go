package exp

// The initiation-time experiments: Table 1 (the paper's headline
// comparison), the comparator line-up, and the §3.2 register-context
// contention study. Each is a thin declarative spec over
// userdma.MeasureMethod / userdma.ContextContention; the shared runner
// does the fan-out.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/machine"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "table1",
		Doc:   "Table 1 — DMA initiation time for the paper's four methods (§3.4)",
		Cells: table1Cells,
		Render: map[Format]RenderFunc{
			Text:     table1Text,
			Markdown: table1Markdown,
		},
	})
	Register(&Experiment{
		Name:  "comparators",
		Doc:   "comparator methods (PAL, SHRIMP, FLASH, no-context shadow) on the same model",
		Cells: comparatorCells,
		Render: map[Format]RenderFunc{
			Text:     comparatorsText,
			Markdown: comparatorsMarkdown,
		},
	})
	Register(&Experiment{
		Name:  "contention",
		Doc:   "§3.2 register-context contention: 6 processes share 4 extended-shadow contexts",
		Cells: contentionCells,
		Render: map[Format]RenderFunc{
			Text:     contentionText,
			Markdown: contentionMarkdown,
		},
	})
}

// MachineName is the calibrated preset's display name, used by every
// renderer and JSON document header.
func MachineName() string { return machine.Alpha3000TC(0, 0).Name }

func table1Cells(p Params) ([]Cell, error) {
	methods := userdma.Methods()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Run: func() (Obs, bool, error) {
			r, err := userdma.MeasureMethod(method, userdma.ConfigFor(method), p.Iters)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", method.Name(), err)
			}
			return Obs{r}, false, nil
		}}
	}
	return cells, nil
}

// Table1 runs the "table1" experiment: the paper's four rows in row
// order, measured on p.Procs workers, byte-identical for any worker
// count.
func Table1(iters, procs int) ([]userdma.InitiationResult, error) {
	r, err := RunNamed("table1", Params{Iters: iters, Procs: procs})
	if err != nil {
		return nil, err
	}
	return Collect[userdma.InitiationResult](r), nil
}

func table1Text(r *Result, p Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — DMA initiation time (%d initiations/method)\n", p.Iters)
	fmt.Fprintf(&b, "machine: %s\n\n", MachineName())
	tb := stats.NewTable("DMA algorithm", "paper (µs)", "measured (µs)", "delta", "min", "max")
	for _, res := range Collect[userdma.InitiationResult](r) {
		tb.AddRow(res.Method,
			fmt.Sprintf("%.1f", res.PaperMean.Microseconds()),
			fmt.Sprintf("%.2f", res.Mean.Microseconds()),
			stats.DeltaPercent(res.Mean, res.PaperMean),
			res.Min, res.Max)
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func table1Markdown(r *Result, _ Params) string {
	var b strings.Builder
	b.WriteString("\n## T1 — Table 1: DMA initiation time\n")
	b.WriteString("\n| DMA algorithm | paper (µs) | measured (µs) | delta |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, res := range Collect[userdma.InitiationResult](r) {
		fmt.Fprintf(&b, "| %s | %.1f | %.2f | %+.1f%% |\n", res.Method,
			res.PaperMean.Microseconds(), res.Mean.Microseconds(),
			100*(float64(res.Mean)-float64(res.PaperMean))/float64(res.PaperMean))
	}
	return b.String()
}

// ComparatorMethods is the canonical comparator line-up: the methods
// measured on the same model but absent from Table 1. The first four
// are the published comparators; the fifth is the extended-shadow
// variant without register contexts.
func ComparatorMethods() []userdma.Method {
	return []userdma.Method{
		userdma.PALCode{}, userdma.SHRIMP1{},
		userdma.SHRIMP2{WithKernelMod: true}, userdma.FLASH{},
		userdma.ExtShadow{NoContexts: true},
	}
}

func (p Params) comparators() []userdma.Method {
	if len(p.Methods) == 0 {
		return ComparatorMethods()
	}
	return p.Methods
}

func comparatorCells(p Params) ([]Cell, error) {
	methods := p.comparators()
	cells := make([]Cell, len(methods))
	for i, method := range methods {
		method := method
		cells[i] = Cell{Method: method.Name(), Run: func() (Obs, bool, error) {
			r, err := userdma.MeasureMethod(method, userdma.ConfigFor(method), p.Iters)
			if err != nil {
				return nil, false, err
			}
			return Obs{r}, false, nil
		}}
	}
	return cells, nil
}

// Comparators runs the "comparators" experiment over the given method
// axis (nil = ComparatorMethods).
func Comparators(iters, procs int, methods []userdma.Method) ([]userdma.InitiationResult, error) {
	r, err := RunNamed("comparators", Params{Iters: iters, Procs: procs, Methods: methods})
	if err != nil {
		return nil, err
	}
	return Collect[userdma.InitiationResult](r), nil
}

func comparatorsText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Comparators (not in Table 1; measured on the same model)\n")
	tb := stats.NewTable("method", "measured (µs)", "kernel mod?")
	results := Collect[userdma.InitiationResult](r)
	for i, m := range p.comparators() {
		tb.AddRow(m.Name(), fmt.Sprintf("%.2f", results[i].Mean.Microseconds()), m.RequiresKernelMod())
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func comparatorsMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## Comparators (no Table 1 reference)\n")
	b.WriteString("\n| method | measured (µs) | kernel mod? |\n")
	b.WriteString("|---|---|---|\n")
	results := Collect[userdma.InitiationResult](r)
	for i, m := range p.comparators() {
		fmt.Fprintf(&b, "| %s | %.2f | %v |\n", m.Name(), results[i].Mean.Microseconds(), m.RequiresKernelMod())
	}
	return b.String()
}

func contentionCells(p Params) ([]Cell, error) {
	// One cell: the six processes share ONE machine (the contention
	// under study is within a world, not between worlds), so the
	// single-goroutine-per-world rule makes this experiment inherently
	// serial — it still rides the same runner and result schema.
	return []Cell{{
		Method: (userdma.ExtShadow{}).Name(),
		Config: "6 procs / 4 contexts",
		Run: func() (Obs, bool, error) {
			rs, err := userdma.ContextContention(userdma.ExtShadow{}, 6, p.Iters/10+1)
			if err != nil {
				return nil, false, err
			}
			obs := make(Obs, len(rs))
			for i, r := range rs {
				obs[i] = r
			}
			return obs, false, nil
		},
	}}, nil
}

// Contention runs the "contention" experiment (iters is the tools'
// -iters value; the study uses iters/10+1 initiations per process, as
// the tools always have).
func Contention(iters, procs int) ([]userdma.InitiationResult, error) {
	r, err := RunNamed("contention", Params{Iters: iters, Procs: procs})
	if err != nil {
		return nil, err
	}
	return Collect[userdma.InitiationResult](r), nil
}

func contentionText(r *Result, _ Params) string {
	var b strings.Builder
	b.WriteString("Register-context contention — 6 processes, 4 extended-shadow contexts\n")
	tb := stats.NewTable("process path", "mean (µs)")
	for _, res := range Collect[userdma.InitiationResult](r) {
		tb.AddRow(res.Method, fmt.Sprintf("%.2f", res.Mean.Microseconds()))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func contentionMarkdown(r *Result, _ Params) string {
	var b strings.Builder
	b.WriteString("\n## §3.2 — register-context contention (6 processes, 4 contexts)\n")
	b.WriteString("\n| process path | mean (µs) |\n")
	b.WriteString("|---|---|\n")
	for _, res := range Collect[userdma.InitiationResult](r) {
		fmt.Fprintf(&b, "| %s | %.2f |\n", res.Method, res.Mean.Microseconds())
	}
	return b.String()
}
