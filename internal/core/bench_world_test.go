package userdma

// World-construction benchmarks. These pin the costs the snapshot
// machinery exists to avoid: building a machine from scratch, warming
// a full attack scenario, cloning a snapshotted world, and one
// complete run of the exhaustive search's hot cycle (checkout → spawn
// → run → rewind → return to pool).

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
)

func BenchmarkMachineNew(b *testing.B) {
	cfg := machine.Alpha3000TC(dma.ModeRepeated, 5)
	for i := 0; i < b.N; i++ {
		if _, err := machine.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackTemplateBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newAttackTemplate(5, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloneWorld(b *testing.B) {
	cfg := machine.Alpha3000TC(dma.ModeRepeated, 5)
	snap, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.NewFromSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterleavingRun is the exhaustive search's per-schedule
// cost in steady state: the template pool is warm, so each iteration
// restores a world instead of building one.
func BenchmarkInterleavingRun(b *testing.B) {
	const sched = "VAAVVAVVVA"
	if _, err := RunInterleaving(sched); err != nil {
		b.Fatal(err) // warm the pool
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunInterleaving(sched); err != nil {
			b.Fatal(err)
		}
	}
}
