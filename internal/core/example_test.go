package userdma_test

import (
	"fmt"
	"log"

	userdma "uldma/internal/core"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// ExampleHandle_DMA shows the complete life of one user-level DMA:
// setup-time kernel work, the two-instruction initiation, and
// user-level completion polling. Deterministic simulation makes the
// timing reproducible to the picosecond.
func ExampleHandle_DMA() {
	method := userdma.ExtShadow{}
	m := userdma.Machine(method)

	var h *userdma.Handle
	p := m.NewProcess("app", func(c *proc.Context) error {
		start := m.Clock.Now()
		status, err := h.DMA(c, 0x10000, 0x20000, 1024)
		if err != nil {
			return err
		}
		fmt.Printf("initiated in %v, %d bytes to go\n", m.Clock.Now()-start, status)
		if err := h.Wait(c, 1000); err != nil {
			return err
		}
		fmt.Println("transfer complete")
		return nil
	})

	var err error
	if h, err = method.Attach(m, p); err != nil { // once per process
		log.Fatal(err)
	}
	srcFrames, err := m.SetupPages(p, 0x10000, 1, vm.Read|vm.Write) // once per page
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.SetupPages(p, 0x20000, 1, vm.Read|vm.Write); err != nil {
		log.Fatal(err)
	}
	m.Mem.Fill(srcFrames[0], 1024, 0x42)

	if err := m.Run(proc.NewRoundRobin(64), 100_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel crossings: %d\n", m.Kernel.Counters().Syscalls)
	// Output:
	// initiated in 1.587µs, 1024 bytes to go
	// transfer complete
	// kernel crossings: 0
}

// ExampleFetchAdd demonstrates a §3.5 user-level atomic operation: one
// locked bus transaction into the NIC's atomic unit, no syscall.
func ExampleFetchAdd() {
	m := userdma.Machine(userdma.ExtShadow{})
	p := m.NewProcess("counter", func(c *proc.Context) error {
		for i := 0; i < 3; i++ {
			old, err := userdma.FetchAdd(c, 0x50000, 10)
			if err != nil {
				return err
			}
			fmt.Println("old value:", old)
		}
		return nil
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), 0x50000, vm.Read|vm.Write); err != nil {
		log.Fatal(err)
	}
	if err := userdma.SetupAtomics(m, p, 0x50000); err != nil {
		log.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(8), 10_000); err != nil {
		log.Fatal(err)
	}
	// Output:
	// old value: 0
	// old value: 10
	// old value: 20
}

// ExampleFigure5 replays the paper's Figure 5 attack in one call.
func ExampleFigure5() {
	o, err := userdma.Figure5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("transfers:", o.Transfers)
	fmt.Println("victim believes success:", o.VictimBelievesSuccess)
	fmt.Println("hijacked:", o.Hijacked)
	// Output:
	// transfers: [C->B[64]]
	// victim believes success: true
	// hijacked: true
}
