package userdma

import (
	"fmt"
	"strings"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/sim"
)

func TestMeasureMethodComparators(t *testing.T) {
	// The comparators measure too (no paper reference, but sane values).
	for _, method := range []Method{PALCode{}, SHRIMP1{}, SHRIMP2{WithKernelMod: true}, FLASH{}} {
		cfg := ConfigFor(method)
		r, err := MeasureMethod(method, cfg, 50)
		if err != nil {
			t.Fatalf("%s: %v", method.Name(), err)
		}
		if r.Mean <= 0 || r.Mean > 20*sim.Microsecond {
			t.Errorf("%s: mean = %v", method.Name(), r.Mean)
		}
		if r.PaperMean != 0 {
			t.Errorf("%s: unexpected paper reference", method.Name())
		}
	}
}

func TestBusSweepFasterBusFasterInitiation(t *testing.T) {
	freqs := []sim.Hz{12_500_000, 33 * sim.MHz, 66 * sim.MHz}
	// For every user-level method, initiation time strictly improves
	// with bus frequency; the kernel path barely moves (it is dominated
	// by trap cost, not bus cycles) — §3.4's projection.
	means := func(f sim.Hz) map[string]sim.Time {
		out := map[string]sim.Time{}
		for _, method := range Methods() {
			cfg := ConfigFor(method)
			if f != 12_500_000 {
				cfg = machine.PCI(method.EngineMode(), method.SeqLen(), f)
			}
			r, err := MeasureMethod(method, cfg, 50)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Method] = r.Mean
		}
		return out
	}
	tc, pci33, pci66 := means(freqs[0]), means(freqs[1]), means(freqs[2])
	for name := range tc {
		if name == "Kernel-level DMA" {
			continue
		}
		if !(pci66[name] < pci33[name] && pci33[name] < tc[name]) {
			t.Errorf("%s: %v -> %v -> %v not improving with bus speed",
				name, tc[name], pci33[name], pci66[name])
		}
		if tc[name] < 2*pci66[name] {
			t.Errorf("%s: 66MHz bus only improved %v -> %v", name, tc[name], pci66[name])
		}
	}
	kernelImprovement := float64(tc["Kernel-level DMA"]) / float64(pci66["Kernel-level DMA"])
	if kernelImprovement > 1.3 {
		t.Errorf("kernel DMA improved %.2fx with bus speed; should be trap-dominated", kernelImprovement)
	}
}

func TestContextContentionFallback(t *testing.T) {
	// Extended mode has 4 contexts; with 6 processes, two fall back to
	// the kernel path and pay its latency.
	results, err := ContextContention(ExtShadow{}, 6, 20)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := 0, 0
	for _, r := range results {
		if strings.Contains(r.Method, "fallback") {
			slow++
			if r.Mean < 10*sim.Microsecond {
				t.Errorf("fallback mean %v suspiciously fast", r.Mean)
			}
		} else {
			fast++
			if r.Mean > 3*sim.Microsecond {
				t.Errorf("user-level mean %v suspiciously slow", r.Mean)
			}
		}
		if r.Iterations != 20 {
			t.Errorf("%s: %d iterations", r.Method, r.Iterations)
		}
	}
	if fast != 4 || slow != 2 {
		t.Fatalf("fast=%d slow=%d, want 4/2", fast, slow)
	}
}

func TestPaperTable1Complete(t *testing.T) {
	for _, m := range Methods() {
		if _, ok := PaperTable1[m.Name()]; !ok {
			t.Errorf("method %q missing from PaperTable1", m.Name())
		}
	}
}

// TestTrendSweep asserts the paper's motivating trend (X7): across
// hardware generations, the kernel path's break-even size GROWS (the
// trap eats relatively more of every transfer) while user-level
// initiation keeps shrinking with the hardware.
func TestTrendSweep(t *testing.T) {
	pts, err := trendSweep(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("eras = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].UserInit >= pts[i-1].UserInit {
			t.Fatalf("user-level initiation did not improve: %v -> %v",
				pts[i-1].UserInit, pts[i].UserInit)
		}
		if pts[i].KernelCrossover < pts[i-1].KernelCrossover {
			t.Fatalf("kernel break-even shrank across generations: %d -> %d",
				pts[i-1].KernelCrossover, pts[i].KernelCrossover)
		}
	}
	// In the 2000 projection, the trap's advantage is nearly gone: the
	// user/kernel ratio keeps widening.
	first := float64(pts[0].KernelInit) / float64(pts[0].UserInit)
	last := float64(pts[2].KernelInit) / float64(pts[2].UserInit)
	if last <= first {
		t.Fatalf("kernel/user ratio did not widen: %.1fx -> %.1fx", first, last)
	}
	t.Logf("kernel/user initiation ratio: %.0fx (1994) -> %.0fx (2000); kernel break-even %dB -> %dB",
		first, last, pts[0].KernelCrossover, pts[2].KernelCrossover)
}

func TestBreakEvenCrossovers(t *testing.T) {
	// The §1 claim, quantified: with kernel initiation the transfer must
	// be KILOBYTES before the wire time outweighs the trap; with
	// extended shadow addressing even tiny transfers amortize.
	kernelPts, err := BreakEven(KernelLevel{}, DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	extPts, err := BreakEven(ExtShadow{}, DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	kCross, ok := Crossover(kernelPts)
	if !ok {
		t.Fatal("kernel path never crossed over")
	}
	eCross, ok := Crossover(extPts)
	if !ok {
		t.Fatal("ext-shadow path never crossed over")
	}
	if kCross < 256 {
		t.Fatalf("kernel crossover at %dB; trap cost should dominate small transfers", kCross)
	}
	if eCross > 256 {
		t.Fatalf("ext-shadow crossover at %dB; user-level initiation should amortize early", eCross)
	}
	// Monotonicity: initiation share falls with size; transfer grows.
	for i := 1; i < len(kernelPts); i++ {
		if kernelPts[i].InitShare > kernelPts[i-1].InitShare {
			t.Fatalf("init share not decreasing: %+v", kernelPts)
		}
		if kernelPts[i].Transfer < kernelPts[i-1].Transfer {
			t.Fatalf("transfer time not increasing: %+v", kernelPts)
		}
	}
	// Initiation time must be size-independent (it is register
	// programming, not data movement).
	for _, pts := range [][]BreakEvenPoint{kernelPts, extPts} {
		for _, pt := range pts[1:] {
			if pt.Initiation != pts[0].Initiation {
				t.Fatalf("initiation varies with size: %v vs %v", pt.Initiation, pts[0].Initiation)
			}
		}
	}
}

// trendSweep runs experiment X7 serially, rewinding one world per era
// between break-even sizes.
func trendSweep(iters int) ([]TrendPoint, error) {
	var out []TrendPoint
	for _, era := range TrendEras() {
		kCfg := era.Config(dma.ModePaired, 0)
		kRes, err := MeasureMethod(KernelLevel{}, kCfg, iters)
		if err != nil {
			return nil, fmt.Errorf("%s/kernel: %w", era.Name, err)
		}
		uCfg := era.Config(dma.ModeExtended, 0)
		uRes, err := MeasureMethod(ExtShadow{}, uCfg, iters)
		if err != nil {
			return nil, fmt.Errorf("%s/user: %w", era.Name, err)
		}
		pts, err := breakEvenEra(era, DefaultSizes)
		if err != nil {
			return nil, err
		}
		cross, _ := Crossover(pts)
		out = append(out, TrendPoint{
			Era:             era.Name,
			KernelInit:      kRes.Mean,
			UserInit:        uRes.Mean,
			KernelCrossover: cross,
		})
	}
	return out, nil
}

// breakEvenEra runs the kernel-path break-even sweep on an era's
// machine (BreakEven always uses the 1997 preset, so the trend needs
// its own variant). One world per era, rewound between sizes.
func breakEvenEra(era Era, sizes []uint64) ([]BreakEvenPoint, error) {
	snap, err := NewWorld(era.Config(dma.ModePaired, 0))
	if err != nil {
		return nil, err
	}
	var out []BreakEvenPoint
	for _, size := range sizes {
		pt, err := breakEvenOnWorld(snap, KernelLevel{}, size)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
