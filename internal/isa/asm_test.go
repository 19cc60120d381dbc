package isa

import (
	"strings"
	"testing"

	"uldma/internal/vm"
)

var testSymbols = map[string]vm.VAddr{
	"A": 0x1_0001_0000,
	"B": 0x1_0002_0000,
}

func TestAssembleFigure7(t *testing.T) {
	src := `
		# Figure 7: repeated passing, 5 accesses with barriers
		store B 64
		mb
		load A
		store B 64 ; mb ; load A
		load B
	`
	prog, err := Assemble(src, testSymbols)
	if err != nil {
		t.Fatal(err)
	}
	if prog.BusAccesses() != 5 || opCount(prog, OpStore) != 2 || opCount(prog, OpLoad) != 3 {
		t.Fatalf("shape: %d accesses, %d stores, %d loads",
			prog.BusAccesses(), opCount(prog, OpStore), opCount(prog, OpLoad))
	}
	if prog[0].Addr != testSymbols["B"] || prog[0].Val != 64 {
		t.Fatalf("first instruction: %v", prog[0])
	}
	if prog[1].Op != OpMB || prog[4].Op != OpMB {
		t.Fatalf("barriers misplaced: %s", prog.Disassemble())
	}
}

func TestAssembleTerseAndLiterals(t *testing.T) {
	prog, err := Assemble("s 0x1000 0xff; l 0x1000; x 0x2000 7; mb", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 4 {
		t.Fatalf("len = %d", len(prog))
	}
	if prog[0].Addr != 0x1000 || prog[0].Val != 0xff {
		t.Fatalf("store literal: %v", prog[0])
	}
	if prog[2].Op != OpSwap || prog[2].Val != 7 {
		t.Fatalf("swap: %v", prog[2])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", "empty program"},
		{"# only comments\n", "empty program"},
		{"frob A", "unknown mnemonic"},
		{"store A", "needs a value"},
		{"store A 1 2", "exactly"},
		{"load", "needs an address"},
		{"load A B", "exactly"},
		{"mb now", "no operands"},
		{"load NOPE", `unknown symbol "NOPE"`},
		{"load 0xzz", "bad address literal"},
		{"store A twelve", `bad value "twelve"`},
	}
	for _, c := range cases {
		_, err := Assemble(c.src, testSymbols)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) err = %v, want substring %q", c.src, err, c.want)
		}
	}
	// Error messages name the known symbols, sorted.
	_, err := Assemble("load NOPE", testSymbols)
	if !strings.Contains(err.Error(), "A, B") {
		t.Errorf("symbol listing missing: %v", err)
	}
}

func TestAssembleLineNumbers(t *testing.T) {
	_, err := Assemble("load A\nstore B\n", testSymbols)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("line number missing: %v", err)
	}
}

// Round trip: an assembled program executes like a hand-built one.
func TestAssembledProgramRuns(t *testing.T) {
	prog, err := Assemble("store A 5\nload A", testSymbols)
	if err != nil {
		t.Fatal(err)
	}
	x := &scriptExec{loadVals: []uint64{5}}
	vals, err := Run(x, prog)
	if err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}
