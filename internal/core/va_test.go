package userdma

import (
	"testing"

	"uldma/internal/dma"
)

// TestVATable1Ordering is the vasweep acceptance criterion: Table 1's
// protocol ordering (kernel-level slowest, then repeated passing, then
// key-based, then extended shadow) survives IOMMU-translated
// initiation, because the user-level instruction sequences are
// unchanged — translation is a walk-time cost.
func TestVATable1Ordering(t *testing.T) {
	byName := map[string]VACompareRow{}
	for _, method := range Methods() {
		r, err := MeasureVACompare(method, 200)
		if err != nil {
			t.Fatal(err)
		}
		byName[r.Method] = r
		if r.VAMean <= 0 || r.ShadowMean <= 0 {
			t.Fatalf("%s: non-positive means (shadow %v, va %v)", r.Method, r.ShadowMean, r.VAMean)
		}
	}
	kern := byName["Kernel-level DMA"].VAMean
	ext := byName["Ext. Shadow Addressing"].VAMean
	rep := byName["Rep. Passing of Arguments"].VAMean
	key := byName["Key-based DMA"].VAMean
	if !(kern > rep && rep > key && key > ext) {
		t.Fatalf("Table 1 ordering lost under VA initiation: kernel %v, rep %v, key %v, ext %v",
			kern, rep, key, ext)
	}
	// Zero-length initiation passes arguments only; the VA path adds no
	// per-initiation instructions, so the user-level means must match
	// the shadow path exactly for the paper's three user-level methods.
	for _, name := range []string{"Ext. Shadow Addressing", "Rep. Passing of Arguments", "Key-based DMA"} {
		r := byName[name]
		if r.VAMean != r.ShadowMean {
			t.Errorf("%s: VA mean %v != shadow mean %v (initiation cost must not change)",
				name, r.VAMean, r.ShadowMean)
		}
	}
}

// TestMeasureIOTLBKnee sweeps the working set past the IOTLB and checks
// the hit rate collapses at the knee (cyclic access is LRU's worst
// case) and the per-transfer latency pays for it.
func TestMeasureIOTLBKnee(t *testing.T) {
	const entries, transfers = 8, 64
	small, err := MeasureIOTLB(2, entries, transfers)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeasureIOTLB(4*entries, entries, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if small.HitRate < 0.9 {
		t.Fatalf("working set inside the IOTLB hit rate %.3f, want >= 0.9", small.HitRate)
	}
	if large.HitRate >= small.HitRate {
		t.Fatalf("hit rate did not collapse past the knee: %.3f (small) vs %.3f (large)",
			small.HitRate, large.HitRate)
	}
	if large.PerTransfer <= small.PerTransfer {
		t.Fatalf("IOTLB misses cost nothing: %v (small) vs %v (large)",
			small.PerTransfer, large.PerTransfer)
	}
	// Determinism: same cell, same world, same digest.
	again, err := MeasureIOTLB(4*entries, entries, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != large.Fingerprint {
		t.Fatalf("IOTLB cell not reproducible: %#x vs %#x", large.Fingerprint, again.Fingerprint)
	}
}

// TestPagingBenchPoliciesDiverge is the paging acceptance criterion:
// with the pager's budget oversubscribed, the three recovery policies
// produce measurably different goodput/latency profiles, and every
// faulted run replays byte-identically from its configuration.
func TestPagingBenchPoliciesDiverge(t *testing.T) {
	const pages, budget, transfers = 16, 6, 48
	results := map[dma.RecoveryPolicy]PagingResult{}
	for _, pol := range []dma.RecoveryPolicy{dma.RecoverStall, dma.RecoverBounce, dma.RecoverPin} {
		r, err := PagingBench(pol, pages, budget, transfers)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if r.Evictions == 0 || r.PageIns == 0 {
			t.Fatalf("%v: oversubscribed run took no paging (evictions %d, page-ins %d)",
				pol, r.Evictions, r.PageIns)
		}
		if r.GoodputMBps <= 0 || r.P99 < r.P50 {
			t.Fatalf("%v: degenerate stats: goodput %.2f, p50 %v, p99 %v",
				pol, r.GoodputMBps, r.P50, r.P99)
		}
		results[pol] = r
	}
	// Policy signatures: stall suspends, bounce redirects, pin pre-pins
	// (and never faults mid-walk).
	if results[dma.RecoverStall].Stalls == 0 {
		t.Error("stall policy recorded no stalls")
	}
	if results[dma.RecoverBounce].Bounced == 0 {
		t.Error("bounce policy bounced no pages")
	}
	pin := results[dma.RecoverPin]
	if pin.Pins == 0 {
		t.Error("pin policy recorded no pins")
	}
	if pin.Faults != 0 {
		t.Errorf("pin policy took %d mid-walk faults, want 0", pin.Faults)
	}
	// The profiles must actually diverge.
	if results[dma.RecoverStall].Fingerprint == results[dma.RecoverBounce].Fingerprint {
		t.Error("stall and bounce produced identical worlds")
	}
	if results[dma.RecoverStall].GoodputMBps == results[dma.RecoverBounce].GoodputMBps &&
		results[dma.RecoverStall].GoodputMBps == pin.GoodputMBps {
		t.Error("all three policies produced identical goodput")
	}
	// Replayability: rerunning a faulted configuration reproduces the
	// exact world digest.
	again, err := PagingBench(dma.RecoverBounce, pages, budget, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != results[dma.RecoverBounce].Fingerprint {
		t.Fatalf("faulted run not replayable: %#x vs %#x",
			results[dma.RecoverBounce].Fingerprint, again.Fingerprint)
	}
}

// TestPagingBenchNoOversub is the control: budget covering the whole
// working set means no evictions and identical behavior across
// policies' fault paths (none taken).
func TestPagingBenchNoOversub(t *testing.T) {
	const pages, budget, transfers = 4, 8, 16
	r, err := PagingBench(dma.RecoverStall, pages, budget, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if r.Evictions != 0 {
		t.Fatalf("under-subscribed run evicted %d pages", r.Evictions)
	}
	if r.Faults > uint64(pages+1) {
		t.Fatalf("under-subscribed run faulted %d times, want at most the %d cold page-ins",
			r.Faults, pages+1)
	}
}
