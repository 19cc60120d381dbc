package machine

import (
	"testing"

	"uldma/internal/dma"
)

// Every measurement cell in the sweeps builds a machine from scratch,
// so world construction is on the critical path of the parallel
// drivers. The lazily materialized physical memory keeps this cheap:
// New must not touch (or allocate) the 64MB RAM image, only the small
// fixed structures.
func BenchmarkMachineNew(b *testing.B) {
	cfg := Alpha3000TC(dma.ModeExtended, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
