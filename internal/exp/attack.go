package exp

// The adversarial search experiments of §3.3: the exhaustive
// interleaving hunt (a SEARCH experiment — a hijacking cell stops the
// sweep, and the lowest-indexed hit in schedule order wins regardless
// of worker scheduling), the seeded random campaign, and cmd/report's
// F5/F6/F8 section, which runs the figure replays and both searches
// as one grid.

import (
	"fmt"
	"strings"

	userdma "uldma/internal/core"
)

func init() {
	Register(&Experiment{
		Name:  "exhaustive",
		Doc:   "F8 — exhaustive interleaving search of the 5-access victim vs a fixed attacker",
		Cells: exhaustiveCells,
	})
	Register(&Experiment{
		Name:  "campaign",
		Doc:   "F8 — seeded random adversarial campaigns against the 5-access sequence",
		Cells: campaignCells,
	})
	Register(&Experiment{
		Name:   "attacks",
		Doc:    "F5/F6/F8 — figure replays, exhaustive search at 1-5 attacker slots, random campaigns",
		Cells:  attacksCells,
		Render: map[Format]RenderFunc{Markdown: attacksMarkdown},
	})
}

func exhaustiveCells(p Params) ([]Cell, error) {
	schedules := userdma.Interleavings(userdma.VictimSlots, p.Slots)
	cells := make([]Cell, len(schedules))
	for i := range schedules {
		i := i
		cells[i] = Cell{Seed: uint64(i), Config: schedules[i], Run: func() (Obs, bool, error) {
			o, err := userdma.RunInterleaving(schedules[i])
			if err != nil {
				return nil, false, err
			}
			// A hijack ends the search: the runner keeps the lowest-
			// indexed one in schedule order, like the serial hunt.
			return Obs{o}, o.Hijacked, nil
		}}
	}
	return cells, nil
}

// ExhaustiveInterleavings runs the "exhaustive" search with the given
// attacker slot budget. The returned (tried, hijack, err) triple is
// identical to the serial search's for any worker count: schedules are
// enumerated in the same order, `tried` counts schedules up to and
// including the stopping one, and the first hijack IN SCHEDULE ORDER
// wins, not the first found on the wall clock.
func ExhaustiveInterleavings(slots, procs int) (tried int, hijack *userdma.AttackOutcome, err error) {
	r, err := RunNamed("exhaustive", Params{Slots: slots, Procs: procs})
	if err != nil {
		if r != nil {
			return r.Tried, nil, err
		}
		return 0, nil, err
	}
	if r.Stopped != nil {
		o := r.Stopped.Obs[0].(userdma.AttackOutcome)
		return r.Tried, &o, nil
	}
	return r.Tried, nil, nil
}

func campaignCells(p Params) ([]Cell, error) {
	n := p.Seeds
	if n < 0 {
		n = 0
	}
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{Seed: uint64(i + 1), Run: func() (Obs, bool, error) {
			o, err := userdma.RandomAdversarialRun(uint64(i+1), false, false)
			if err != nil {
				return nil, false, err
			}
			return Obs{o}, false, nil
		}}
	}
	return cells, nil
}

// attackSlots is the attacks section's exhaustive-search ladder.
var attackSlots = []int{1, 2, 3, 4, 5}

// attacksCells lays the F5/F6/F8 section out as one grid, each cell
// labelled by its study in Method: the three figure replays, every
// exhaustive schedule at each attackSlots budget, then p.Seeds random
// campaigns. A hijack in the exhaustive hunt fails the section rather
// than stopping it: the 5-access sequence must survive every schedule.
func attacksCells(p Params) ([]Cell, error) {
	replay := func(fig func() (userdma.AttackOutcome, error)) func() (Obs, bool, error) {
		return func() (Obs, bool, error) {
			o, err := fig()
			return Obs{o}, false, err
		}
	}
	cells := []Cell{
		{Method: "figure5", Run: replay(userdma.Figure5)},
		{Method: "figure6", Run: replay(userdma.Figure6)},
		{Method: "figure8", Run: replay(userdma.Figure8Replay)},
	}
	for _, slots := range attackSlots {
		hunt, err := exhaustiveCells(Params{Slots: slots})
		if err != nil {
			return nil, err
		}
		for _, c := range hunt {
			run := c.Run
			c.Method = "exhaustive"
			c.Run = func() (Obs, bool, error) {
				obs, hijack, err := run()
				if err == nil && hijack {
					err = fmt.Errorf("exhaustive search found a hijack: %v", obs[0])
				}
				return obs, false, err
			}
			cells = append(cells, c)
		}
	}
	campaign, err := campaignCells(p)
	if err != nil {
		return nil, err
	}
	for _, c := range campaign {
		c.Method = "campaign"
		cells = append(cells, c)
	}
	return cells, nil
}

func attacksMarkdown(r *Result, p Params) string {
	var b strings.Builder
	b.WriteString("\n## F5/F6/F8 — adversarial studies\n")
	tried, hijacks, deceptions := 0, 0, 0
	for _, c := range r.Cells {
		o := c.Obs[0].(userdma.AttackOutcome)
		switch c.Cell.Method {
		case "figure5":
			fmt.Fprintf(&b, "\n- Figure 5 (3-access): transfers %v, victim success %v, hijacked %v\n",
				o.Transfers, o.VictimBelievesSuccess, o.Hijacked)
		case "figure6":
			fmt.Fprintf(&b, "- Figure 6 (4-access): transfers %v, victim success %v, misinformed %v\n",
				o.Transfers, o.VictimBelievesSuccess, o.Misinformed)
		case "figure8":
			fmt.Fprintf(&b, "- Figure 8 (5-access, same schedule): %v\n", o)
		case "exhaustive":
			tried++
		case "campaign":
			if o.Hijacked {
				hijacks++
			}
			if o.Misinformed {
				deceptions++
			}
		}
	}
	fmt.Fprintf(&b, "- exhaustive search: %d interleavings, zero hijacks\n", tried)
	fmt.Fprintf(&b, "- random campaigns: %d runs, %d hijacks, %d status deceptions\n",
		p.Seeds, hijacks, deceptions)
	return b.String()
}
