package exp

// Experiment X4: the bus-frequency sweep. The grid is frequency ×
// method in frequency-major order, and — unlike the old
// map[sim.Hz][]InitiationResult driver — the result is ORDERED by cell
// index, so rendering the sweep is deterministic byte for byte (the
// regression test renders it twice and compares).

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/machine"
	"uldma/internal/sim"
	"uldma/internal/stats"
)

func init() {
	Register(&Experiment{
		Name:  "bussweep",
		Doc:   "X4 — Table 1 methods swept across bus frequencies (12.5/33/66 MHz)",
		Cells: busSweepCells,
		Render: map[Format]RenderFunc{
			Text:     busSweepText,
			Markdown: busSweepMarkdown,
		},
	})
}

func busSweepCells(p Params) ([]Cell, error) {
	methods := userdma.Methods()
	var cells []Cell
	for _, freq := range p.freqs() {
		for _, method := range methods {
			freq, method := freq, method
			cells = append(cells, Cell{Method: method.Name(), Config: freq.String(), Run: func() (Obs, bool, error) {
				var cfg machine.Config
				if freq == 12_500_000 {
					cfg = userdma.ConfigFor(method)
				} else {
					cfg = machine.PCI(method.EngineMode(), method.SeqLen(), freq)
				}
				r, err := userdma.MeasureMethod(method, cfg, p.Iters)
				if err != nil {
					return nil, false, fmt.Errorf("%v/%s: %w", freq, method.Name(), err)
				}
				return Obs{r}, false, nil
			}})
		}
	}
	return cells, nil
}

// FreqRows is one frequency's slice of the ordered sweep.
type FreqRows struct {
	Freq sim.Hz
	Rows []userdma.InitiationResult
}

// BusSweepJSON renders the sweep in the map shape the tools emit.
// encoding/json sorts the keys, and "PCI 33MHz" < "PCI 66MHz" <
// "TC 12.5MHz" is a fixed order, so the document is deterministic.
func BusSweepJSON(groups []FreqRows) map[string][]userdma.InitiationResult {
	out := make(map[string][]userdma.InitiationResult, len(groups))
	for _, g := range groups {
		out[g.Freq.String()] = g.Rows
	}
	return out
}

// BusSweepGroups slices an ordered bussweep result per frequency, in
// the frequency-axis order.
func BusSweepGroups(r *Result, p Params) []FreqRows {
	freqs := p.freqs()
	if len(freqs) == 0 || len(r.Cells)%len(freqs) != 0 {
		return nil
	}
	per := len(r.Cells) / len(freqs)
	out := make([]FreqRows, len(freqs))
	rows := Collect[userdma.InitiationResult](r)
	for i, f := range freqs {
		out[i] = FreqRows{Freq: f, Rows: rows[i*per : (i+1)*per]}
	}
	return out
}

// BusSweep runs the "bussweep" experiment over the canonical X4
// frequency axis and returns the ordered per-frequency groups.
func BusSweep(iters, procs int) ([]FreqRows, error) {
	p := Params{Iters: iters, Procs: procs}
	r, err := RunNamed("bussweep", p)
	if err != nil {
		return nil, err
	}
	return BusSweepGroups(r, p), nil
}

// freqHeader names a sweep column the way the tools always have:
// TurboChannel at the calibrated 12.5 MHz, PCI everywhere else.
func freqHeader(f sim.Hz) string {
	if f == 12_500_000 {
		return "TC 12.5MHz"
	}
	return "PCI " + f.String()
}

func busSweepText(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("Bus-frequency sweep (X4) — mean initiation (µs)\n")
	groups := BusSweepGroups(r, p)
	headers := []string{"DMA algorithm"}
	for _, g := range groups {
		headers = append(headers, freqHeader(g.Freq))
	}
	tb := stats.NewTable(headers...)
	if len(groups) > 0 {
		for i, res := range groups[0].Rows {
			row := []any{res.Method}
			for _, g := range groups {
				row = append(row, fmt.Sprintf("%.2f", g.Rows[i].Mean.Microseconds()))
			}
			tb.AddRow(row...)
		}
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')
	return b.String()
}

func busSweepMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## X4 — bus-frequency sweep (mean µs)\n")
	groups := BusSweepGroups(r, p)
	b.WriteString("\n| DMA algorithm |")
	for _, g := range groups {
		fmt.Fprintf(&b, " %s |", freqHeader(g.Freq))
	}
	b.WriteString("\n|---|")
	for range groups {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	if len(groups) > 0 {
		for i, res := range groups[0].Rows {
			fmt.Fprintf(&b, "| %s |", res.Method)
			for _, g := range groups {
				fmt.Fprintf(&b, " %.2f |", g.Rows[i].Mean.Microseconds())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
