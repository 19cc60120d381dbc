package userdma

// The live feed's cost contract: attaching a per-transfer observer to
// a paging measurement must change NOTHING about the measured world —
// same scores, same counters, same fingerprint, zero simulated
// picoseconds — and the obs reads it is built on must not allocate.
// The veto path (observer returns false) is the one deliberate
// divergence: the stream stops early and Completed says so.

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
)

// TestLiveFeedZeroDelta runs the same paging cell with and without a
// sampling observer and demands byte-identical results: the live feed
// costs 0 simulated time and perturbs no counter (the fingerprint is
// the whole world's digest, so any drift shows).
func TestLiveFeedZeroDelta(t *testing.T) {
	const pages, budget, transfers = 16, 8, 32
	base, err := PagingBench(dma.RecoverStall, pages, budget, transfers)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	var last LiveSample
	live, err := PagingBenchLive(dma.RecoverStall, pages, budget, transfers, func(s LiveSample) bool {
		samples++
		last = s
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples != transfers {
		t.Fatalf("observer saw %d samples, want one per transfer (%d)", samples, transfers)
	}
	if live.LiveSamples != transfers {
		t.Fatalf("result reports %d live samples, want %d", live.LiveSamples, transfers)
	}
	if last.Done != transfers || last.At == 0 {
		t.Fatalf("final sample %+v inconsistent with result %+v", last, live)
	}
	if last.Faults != live.Faults || last.Evictions != live.Evictions {
		t.Fatalf("final live sample (faults %d, evictions %d) disagrees with post-hoc result (faults %d, evictions %d)",
			last.Faults, last.Evictions, live.Faults, live.Evictions)
	}
	// Zero the one field the live path is allowed to set; everything
	// else — timings, counters, fingerprint — must match exactly.
	live.LiveSamples = 0
	if live != base {
		t.Fatalf("live feed perturbed the measurement:\nbase %+v\nlive %+v", base, live)
	}
}

// TestLiveFeedVeto pins the early-abort hook: an observer that vetoes
// once live faults cross a threshold stops the stream short, and the
// result reports the truncated run honestly.
func TestLiveFeedVeto(t *testing.T) {
	const pages, budget, transfers = 16, 8, 32
	full, err := PagingBench(dma.RecoverStall, pages, budget, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if full.Faults == 0 {
		t.Fatal("oversubscribed cell took no faults; the veto test needs some")
	}
	cut, err := PagingBenchLive(dma.RecoverStall, pages, budget, transfers, func(s LiveSample) bool {
		return s.Faults < full.Faults/2
	})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Completed >= transfers {
		t.Fatalf("veto did not stop the stream: completed %d of %d", cut.Completed, transfers)
	}
	if cut.Completed == 0 {
		t.Fatal("veto fired before any transfer completed")
	}
	if cut.Elapsed >= full.Elapsed {
		t.Fatalf("truncated run took %v, full run %v", cut.Elapsed, full.Elapsed)
	}
	if cut.Faults >= full.Faults {
		t.Fatalf("truncated run faulted %d times, full run %d", cut.Faults, full.Faults)
	}
}

// TestLiveWatchZeroAllocs pins the obs plane's live reads on a real
// machine registry: a watch handle read is allocation-free, which is
// what lets the feed ride inside a hot measurement loop.
func TestLiveWatchZeroAllocs(t *testing.T) {
	m, err := machine.New(VAConfigFor(ExtShadow{}, 0))
	if err != nil {
		t.Fatal(err)
	}
	w, ok := m.Obs.Watch("dma.va_faults")
	if !ok {
		t.Fatal("dma.va_faults not registered")
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(200, func() { sink += w.Value() }); allocs != 0 {
		t.Fatalf("Watch.Value allocated %.1f times per read on a machine registry, want 0", allocs)
	}
	_ = sink
}
