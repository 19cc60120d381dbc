package isa

import (
	"errors"
	"strings"
	"testing"

	"uldma/internal/phys"
	"uldma/internal/vm"
)

// scriptExec records executed operations and returns scripted load values.
type scriptExec struct {
	ops      []string
	loadVals []uint64
	loadIdx  int
	failAt   int // 1-based op index to fail at; 0 = never
	count    int
}

func (e *scriptExec) step(op string) error {
	e.count++
	e.ops = append(e.ops, op)
	if e.failAt != 0 && e.count == e.failAt {
		return errors.New("injected failure")
	}
	return nil
}

func (e *scriptExec) Load(addr vm.VAddr, size phys.AccessSize) (uint64, error) {
	if err := e.step("L"); err != nil {
		return 0, err
	}
	v := uint64(0)
	if e.loadIdx < len(e.loadVals) {
		v = e.loadVals[e.loadIdx]
	}
	e.loadIdx++
	return v, nil
}

func (e *scriptExec) Store(addr vm.VAddr, size phys.AccessSize, val uint64) error {
	return e.step("S")
}

func (e *scriptExec) MB() error { return e.step("M") }

func (e *scriptExec) Swap(addr vm.VAddr, size phys.AccessSize, val uint64) (uint64, error) {
	if err := e.step("X"); err != nil {
		return 0, err
	}
	v := uint64(0)
	if e.loadIdx < len(e.loadVals) {
		v = e.loadVals[e.loadIdx]
	}
	e.loadIdx++
	return v, nil
}

func TestOpString(t *testing.T) {
	if OpLoad.String() != "LOAD" || OpStore.String() != "STORE" || OpMB.String() != "MB" {
		t.Fatal("opcode names wrong")
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown opcode renders as %q", got)
	}
}

func TestInstrString(t *testing.T) {
	s := Store(0x1000, phys.Size64, 0x40, "pass size").String()
	if !strings.Contains(s, "STORE") || !strings.Contains(s, "0x40") || !strings.Contains(s, "pass size") {
		t.Fatalf("store disassembly: %q", s)
	}
	l := Load(0x2000, phys.Size64, "").String()
	if !strings.Contains(l, "LOAD") || !strings.Contains(l, "0x2000") || strings.Contains(l, ";") {
		t.Fatalf("load disassembly: %q", l)
	}
	if MB("drain").String() != "MB ; drain" {
		t.Fatalf("MB disassembly: %q", MB("drain").String())
	}
}

func rep5Program() Program {
	// The Figure 7 shape: STORE, LOAD, STORE, LOAD, LOAD with barriers.
	return Program{
		Store(0x2000, phys.Size64, 64, "size to shadow(vdst)"),
		MB(""),
		Load(0x1000, phys.Size64, "status from shadow(vsrc)"),
		Store(0x2000, phys.Size64, 64, "size to shadow(vdst) again"),
		MB(""),
		Load(0x1000, phys.Size64, "status again"),
		Load(0x2000, phys.Size64, "final status from shadow(vdst)"),
	}
}

// opCount returns how many of p's instructions have opcode op.
func opCount(p Program, op Op) int {
	n := 0
	for _, i := range p {
		if i.Op == op {
			n++
		}
	}
	return n
}

func TestProgramCounts(t *testing.T) {
	p := rep5Program()
	if p.Len() != 7 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.BusAccesses() != 5 {
		t.Fatalf("BusAccesses = %d, want 5 (the paper's 5-instruction sequence)", p.BusAccesses())
	}
	if opCount(p, OpLoad) != 3 || opCount(p, OpStore) != 2 {
		t.Fatalf("Loads=%d Stores=%d, want 3/2", opCount(p, OpLoad), opCount(p, OpStore))
	}
}

func TestDisassembleNumbersLines(t *testing.T) {
	d := rep5Program().Disassemble()
	lines := strings.Split(strings.TrimRight(d, "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("disassembly has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], " 1: STORE") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.HasPrefix(lines[6], " 7: LOAD") {
		t.Fatalf("last line %q", lines[6])
	}
}

func TestRunOrderAndLoadValues(t *testing.T) {
	x := &scriptExec{loadVals: []uint64{10, 20, 30}}
	vals, err := Run(x, rep5Program())
	if err != nil {
		t.Fatal(err)
	}
	want := "S M L S M L L"
	if got := strings.Join(x.ops, " "); got != want {
		t.Fatalf("execution order %q, want %q", got, want)
	}
	if len(vals) != 3 || vals[0] != 10 || vals[1] != 20 || vals[2] != 30 {
		t.Fatalf("load values = %v", vals)
	}
}

func TestRunStopsAtFirstError(t *testing.T) {
	x := &scriptExec{failAt: 3} // first LOAD fails
	vals, err := Run(x, rep5Program())
	if err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if !strings.Contains(err.Error(), "instruction 3") {
		t.Fatalf("error does not name the failing instruction: %v", err)
	}
	if len(x.ops) != 3 {
		t.Fatalf("execution continued after failure: %v", x.ops)
	}
	if len(vals) != 0 {
		t.Fatalf("partial loads returned: %v", vals)
	}
}

func TestSwapInstruction(t *testing.T) {
	// SHRIMP-1: the entire DMA initiation is one compare-and-exchange.
	p := Program{Swap(0x1000, phys.Size64, 4096, "size via C&E; dst is the mapped-out page")}
	if p.BusAccesses() != 1 || p.Len() != 1 {
		t.Fatalf("SHRIMP-1 program: %d instrs / %d accesses, want 1/1", p.Len(), p.BusAccesses())
	}
	if s := p[0].String(); !strings.Contains(s, "SWAP") || !strings.Contains(s, "0x1000") {
		t.Fatalf("swap disassembly: %q", s)
	}
	x := &scriptExec{loadVals: []uint64{4096}}
	vals, err := Run(x, p)
	if err != nil || len(vals) != 1 || vals[0] != 4096 {
		t.Fatalf("swap run: vals=%v err=%v", vals, err)
	}
	if OpSwap.String() != "SWAP" {
		t.Fatal("OpSwap name wrong")
	}
}

func TestRunUnknownOpcode(t *testing.T) {
	p := Program{{Op: Op(42)}}
	if _, err := Run(&scriptExec{}, p); err == nil {
		t.Fatal("unknown opcode accepted")
	}
}

func TestEmptyProgram(t *testing.T) {
	vals, err := Run(&scriptExec{}, nil)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty program: vals=%v err=%v", vals, err)
	}
}
