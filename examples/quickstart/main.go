// Quickstart: the smallest complete user-level DMA program.
//
// It builds the calibrated Alpha+TurboChannel machine with the engine
// in extended-shadow mode, sets up one process with a source and a
// destination page, and moves 1 KiB between them with the paper's
// fastest method — two user-mode instructions, no syscall.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	userdma "uldma/internal/core"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

func main() {
	method := userdma.ExtShadow{}
	m := userdma.Machine(method) // machine preset wired for the method

	const srcVA, dstVA = vm.VAddr(0x10000), vm.VAddr(0x20000)

	// The guest program: initiate the DMA, print the status word, wait
	// for completion by polling from user level.
	var h *userdma.Handle
	p := m.NewProcess("quickstart", func(c *proc.Context) error {
		fmt.Println("user-level sequence for DMA(src, dst, 1024):")
		prog, _ := h.Program(srcVA, dstVA, 1024)
		fmt.Print(prog.Disassemble())

		start := m.Clock.Now()
		status, err := h.DMA(c, srcVA, dstVA, 1024)
		if err != nil {
			return err
		}
		fmt.Printf("\ninitiated in %v (status: %d bytes to go)\n", m.Clock.Now()-start, status)
		if err := h.Wait(c, 1000); err != nil {
			return err
		}
		fmt.Printf("transfer complete at t=%v\n", m.Clock.Now())
		return nil
	})

	// Setup-time kernel work (once per process, not per transfer):
	// register context, data pages, shadow aliases.
	var err error
	if h, err = method.Attach(m, p); err != nil {
		log.Fatal(err)
	}
	srcFrames, err := m.SetupPages(p, srcVA, 1, vm.Read|vm.Write)
	if err != nil {
		log.Fatal(err)
	}
	dstFrames, err := m.SetupPages(p, dstVA, 1, vm.Read|vm.Write)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Mem.Fill(srcFrames[0], 1024, 0x42); err != nil {
		log.Fatal(err)
	}

	if err := m.Run(proc.NewRoundRobin(64), 1_000_000); err != nil {
		log.Fatal(err)
	}
	if p.Err() != nil {
		log.Fatal(p.Err())
	}

	// Verify from outside the machine.
	got, err := m.Mem.ReadBytes(dstFrames[0], 1024)
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for _, b := range got {
		if b != 0x42 {
			ok = false
			break
		}
	}
	fmt.Printf("destination verified: %v (1024 bytes of 0x42)\n", ok)
	fmt.Printf("kernel crossings during the transfer: %d\n", m.Kernel.Counters().Syscalls)
}
