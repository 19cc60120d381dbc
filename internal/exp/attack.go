package exp

// The adversarial search experiments of §3.3: the exhaustive
// interleaving hunt (a SEARCH experiment — a hijacking cell stops the
// sweep, and the lowest-indexed hit in schedule order wins regardless
// of worker scheduling) and the seeded random campaign.

import (
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
}

// scheduleString renders a slot schedule the way the attacksim tool
// spells them: V for a victim slot, A for an attacker slot.
func scheduleString(sched []bool) string {
	var b strings.Builder
	for _, victim := range sched {
		if victim {
			b.WriteByte('V')
		} else {
			b.WriteByte('A')
		}
	}
	return b.String()
}

func exhaustiveCells(p Params) ([]Cell, error) {
	schedules := userdma.Interleavings(userdma.VictimSlots, p.Slots)
	cells := make([]Cell, len(schedules))
	for i := range schedules {
		i := i
		cells[i] = Cell{Seed: uint64(i), Config: scheduleString(schedules[i]), Run: func() (Obs, bool, error) {
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
			o, err := userdma.RandomAdversarialRun(uint64(i+1), p.ShareA, p.LooseStatus)
			if err != nil {
				return nil, false, err
			}
			return Obs{o}, false, nil
		}}
	}
	return cells, nil
}

// Campaign runs RandomAdversarialRun for seeds 1..n concurrently and
// returns the outcomes in seed order (byte-identical to a serial seed
// loop: each run owns its machine and its seeded RNG).
func Campaign(n int, shareA, looseStatus bool, procs int) ([]userdma.AttackOutcome, error) {
	r, err := RunNamed("campaign", Params{Seeds: n, ShareA: shareA, LooseStatus: looseStatus, Procs: procs})
	if err != nil {
		return nil, err
	}
	return Collect[userdma.AttackOutcome](r), nil
}
