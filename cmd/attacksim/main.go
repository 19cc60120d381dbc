// Command attacksim replays the paper's adversarial interleavings:
//
//	attacksim -figure 5    Figure 5: hijack of the 3-access variant
//	attacksim -figure 6    Figure 6: deception of the 4-access variant
//	attacksim -figure 8    Figure 8: the safe 5-access sequence under
//	                       the same attack, plus an exhaustive
//	                       interleaving search and a seeded random
//	                       adversarial campaign
//	attacksim              all of the above
package main

import (
	"flag"
	"fmt"
	"strings"

	userdma "uldma/internal/core"
	"uldma/internal/exp"
	"uldma/internal/isa"
)

func main() {
	figure := flag.Int("figure", 0, "which figure to replay (5, 6 or 8; 0 = all)")
	attackerSlots := flag.Int("slots", 4, "attacker slots for the exhaustive search")
	seeds := flag.Int("seeds", 25, "random adversarial campaigns for figure 8")
	procs := flag.Int("procs", 0, "worker goroutines for the figure-8 searches (0 = GOMAXPROCS)")
	victimSrc := flag.String("victim", "", "custom victim sequence (assembler syntax; symbols A B C FOO)")
	attackerSrc := flag.String("attacker", "", "custom attacker sequence")
	schedule := flag.String("schedule", "", "custom slot schedule, e.g. VAAAVVAV")
	seqLen := flag.Int("seqlen", 5, "engine sequence length for -victim mode (3, 4 or 5)")
	shareA := flag.Bool("share-a", false, "give the attacker read access to page A")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	flag.Parse()
	stop, err := exp.StartProfiles()
	if err != nil {
		exp.Fail("attacksim", 2, err)
	}
	defer stop()

	if *list {
		fmt.Print(exp.List())
		return
	}

	if *victimSrc != "" {
		if err := custom(*seqLen, *shareA, *victimSrc, *attackerSrc, *schedule); err != nil {
			exp.Fail("attacksim", 1, err)
		}
		return
	}

	run := func(f int) error {
		switch f {
		case 5:
			return figure5()
		case 6:
			return figure6()
		case 8:
			return figure8(*attackerSlots, *seeds, *procs)
		default:
			return fmt.Errorf("unknown figure %d", f)
		}
	}
	figures := []int{5, 6, 8}
	if *figure != 0 {
		figures = []int{*figure}
	}
	for _, f := range figures {
		if err := run(f); err != nil {
			exp.Fail("attacksim", 1, err)
		}
		fmt.Println()
	}
	if err := exp.FlushTrace(); err != nil {
		exp.Fail("attacksim", 1, err)
	}
}

// custom runs researcher-scripted sequences in the standard scenario.
// Example — rediscover Figure 6 by hand:
//
//	attacksim -seqlen 4 -share-a \
//	  -victim   'store B 64; mb; load A; store B 64; mb; load A' \
//	  -attacker 'load A' \
//	  -schedule VVVVVAV
func custom(seqLen int, shareA bool, victimSrc, attackerSrc, schedule string) error {
	banner("Custom duel")
	symbols := userdma.ScenarioSymbols()
	victim, err := isa.Assemble(victimSrc, symbols)
	if err != nil {
		return fmt.Errorf("victim: %w", err)
	}
	var attacker isa.Program
	if attackerSrc != "" {
		if attacker, err = isa.Assemble(attackerSrc, symbols); err != nil {
			return fmt.Errorf("attacker: %w", err)
		}
	}
	fmt.Printf("engine: repeated-passing, %d-access FSM; attacker reads A: %v\n\n", seqLen, shareA)
	fmt.Println("victim sequence:")
	fmt.Print(victim.Disassemble())
	if len(attacker) > 0 {
		fmt.Println("attacker sequence:")
		fmt.Print(attacker.Disassemble())
	}
	o, err := userdma.CustomDuel(seqLen, shareA, victim, attacker, schedule)
	if err != nil {
		return err
	}
	fmt.Printf("\nschedule: %s\noutcome:  %v\n", schedule, o)
	return nil
}

func banner(s string) {
	fmt.Println(s)
	fmt.Println(strings.Repeat("=", len([]rune(s))))
}

func figure5() error {
	banner("Figure 5 — 3-access repeated passing: hijack")
	fmt.Println(`victim wants DMA A->B; attacker touches only its own pages FOO and C`)
	o, err := userdma.Figure5()
	if err != nil {
		return err
	}
	fmt.Printf("transfers started:       %v\n", o.Transfers)
	fmt.Printf("victim believes success: %v (status %#x)\n", o.VictimBelievesSuccess, o.VictimStatus)
	fmt.Printf("HIJACKED:                %v  (attacker data written into victim page B)\n", o.Hijacked)
	if !o.Hijacked {
		return fmt.Errorf("expected the figure 5 hijack to reproduce")
	}
	return nil
}

func figure6() error {
	banner("Figure 6 — 4-access repeated passing: deception")
	fmt.Println(`victim wants DMA A->B; attacker has read access to public page A`)
	o, err := userdma.Figure6()
	if err != nil {
		return err
	}
	fmt.Printf("transfers started:       %v\n", o.Transfers)
	fmt.Printf("attacker's load status:  %#x (the DMA started for the ATTACKER)\n", o.AttackerStatus)
	fmt.Printf("victim told:             FAILURE=%v\n", !o.VictimBelievesSuccess)
	fmt.Printf("MISINFORMED:             %v\n", o.Misinformed)
	if !o.Misinformed || o.Hijacked {
		return fmt.Errorf("expected the figure 6 deception (and no hijack) to reproduce")
	}
	return nil
}

func figure8(attackerSlots, seeds, procs int) error {
	banner("Figure 8 — 5-access repeated passing under attack")
	o, err := userdma.Figure8Replay()
	if err != nil {
		return err
	}
	fmt.Printf("figure-5-style schedule:  %v\n", o)
	if o.Hijacked {
		return fmt.Errorf("the 5-access sequence was hijacked")
	}

	tried, hijack, err := exp.ExhaustiveInterleavings(attackerSlots, procs)
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive search:        %d interleavings (victim x %d attacker slots), hijacks: ",
		tried, attackerSlots)
	if hijack != nil {
		fmt.Println("FOUND —", *hijack)
		return fmt.Errorf("safety violated")
	}
	fmt.Println("none")

	r, err := exp.RunNamed("campaign", exp.Params{Seeds: seeds, Procs: procs})
	if err != nil {
		return err
	}
	hijacked, misinformed := 0, 0
	for _, o := range exp.Collect[userdma.AttackOutcome](r) {
		if o.Hijacked {
			hijacked++
		}
		if o.Misinformed {
			misinformed++
		}
	}
	fmt.Printf("random campaigns:         %d runs, %d hijacks, %d status deceptions\n",
		seeds, hijacked, misinformed)
	fmt.Println("  (memory safety holds in every run — the paper's §3.3.1 claim;")
	fmt.Println("   the in-band status word can still lie under sustained interference,")
	fmt.Println("   a residual the paper's proof does not cover. See EXPERIMENTS.md.)")
	if hijacked > 0 {
		return fmt.Errorf("safety violated in random campaign")
	}
	return nil
}
