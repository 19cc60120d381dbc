package userdma

import (
	"fmt"
	"reflect"
	"testing"
)

// TestAttackTemplateRestoreFidelity pins the template pool's contract:
// a run on a REUSED world (checked out of the pool, i.e. restored from
// its pristine snapshot after a previous run) must reproduce a run on
// a FRESHLY BUILT world byte for byte. Each scenario is executed
// several times in a row — the first call builds the template, the
// rest exercise the restore path — and every repetition must equal the
// first.
func TestAttackTemplateRestoreFidelity(t *testing.T) {
	scenarios := []struct {
		name string
		run  func() (AttackOutcome, error)
	}{
		{"Figure5", Figure5},
		{"Figure6", Figure6},
		{"Figure8Replay", Figure8Replay},
		{"RandomSeed7", func() (AttackOutcome, error) { return RandomAdversarialRun(7, false, false) }},
		{"RandomSeed7ShareA", func() (AttackOutcome, error) { return RandomAdversarialRun(7, true, false) }},
		{"Interleaving", func() (AttackOutcome, error) {
			// One fixed schedule from the exhaustive grid.
			return RunInterleaving("VAAVVAVVVA")
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			first, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			for rep := 1; rep < 4; rep++ {
				got, err := sc.run()
				if err != nil {
					t.Fatalf("rep %d: %v", rep, err)
				}
				// Compare through the String summary AND the full
				// struct (VictimErr is an error value: compare its
				// rendering).
				if !reflect.DeepEqual(got.Transfers, first.Transfers) ||
					got.VictimStatus != first.VictimStatus ||
					got.VictimBelievesSuccess != first.VictimBelievesSuccess ||
					got.AttackerStatus != first.AttackerStatus ||
					got.Hijacked != first.Hijacked ||
					got.Misinformed != first.Misinformed ||
					fmt.Sprint(got.VictimErr) != fmt.Sprint(first.VictimErr) {
					t.Fatalf("rep %d diverged from fresh world:\n  rep   %v (err %v)\n  fresh %v (err %v)",
						rep, got, got.VictimErr, first, first.VictimErr)
				}
			}
		})
	}
}
