package dma

import (
	"fmt"
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// refFSM is an independent re-derivation of the §3.3 sequence rules,
// written directly from the paper's prose rather than from the engine
// code, to cross-check the engine under random access streams:
//
//   - the engine expects a fixed kind pattern (L,S,L / S,L,S,L /
//     S,L,S,L,L);
//   - "if it sees anything out of this order, the DMA engine resets
//     itself" — and the offending access may begin a new sequence;
//   - accesses two positions apart must target the same address, and
//     every store must carry the same size;
//   - when the pattern completes, a transfer (src, dst, size) starts
//     and the completing load returns success; loads that break the
//     sequence return DMA_FAILURE; loads that extend a valid prefix
//     return an ACCEPTED code.
type refFSM struct {
	pattern []accKind
	idx     int
	addrs   []phys.Addr
	size    uint64
	haveSz  bool
	started []refTransfer
}

type refTransfer struct {
	src, dst phys.Addr
	size     uint64
}

func newRefFSM(seqLen int) *refFSM {
	r := &refFSM{addrs: make([]phys.Addr, 5)}
	switch seqLen {
	case 3:
		r.pattern = []accKind{accLoad, accStore, accLoad}
	case 4:
		r.pattern = []accKind{accStore, accLoad, accStore, accLoad}
	default:
		r.pattern = []accKind{accStore, accLoad, accStore, accLoad, accLoad}
	}
	return r
}

func (r *refFSM) reset() { r.idx, r.haveSz = 0, false }

// feed returns (status, statusValid): statusValid is true for loads
// (stores return nothing to the issuer).
func (r *refFSM) feed(kind accKind, addr phys.Addr, data uint64) (uint64, bool) {
	fits := kind == r.pattern[r.idx]
	if fits && r.idx >= 2 && addr != r.addrs[r.idx-2] {
		fits = false
	}
	if fits && kind == accStore && r.haveSz && data != r.size {
		fits = false
	}
	if !fits {
		r.reset()
		if kind == r.pattern[0] {
			r.addrs[0] = addr
			if kind == accStore {
				r.size, r.haveSz = data, true
			}
			r.idx = 1
			return StatusAccepted, kind == accLoad
		}
		return StatusFailure, kind == accLoad
	}
	r.addrs[r.idx] = addr
	if kind == accStore && !r.haveSz {
		r.size, r.haveSz = data, true
	}
	r.idx++
	if r.idx < len(r.pattern) {
		return StatusAccepted, kind == accLoad
	}
	var src, dst phys.Addr
	if r.pattern[0] == accLoad {
		src, dst = r.addrs[0], r.addrs[1]
	} else {
		src, dst = r.addrs[1], r.addrs[0]
	}
	size := r.size
	r.reset()
	r.started = append(r.started, refTransfer{src: src, dst: dst, size: size})
	return size, true // engine returns remaining = size at start
}

// TestRepeatedFSMMatchesReferenceModel drives engine and reference with
// identical random access streams and demands identical decisions.
func TestRepeatedFSMMatchesReferenceModel(t *testing.T) {
	addrAlphabet := []phys.Addr{0x1000, 0x2000, 0x3000, 0x4000}
	sizeAlphabet := []uint64{32, 64}
	for _, seqLen := range []int{3, 4, 5} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := sim.NewRand(seed*1000 + uint64(seqLen))
			f := newEngine(t, ModeRepeated, func(c *Config) {
				c.SeqLen = seqLen
				c.StartupTime = 0
			})
			// Sources must hold readable bytes for any started transfer.
			for _, a := range addrAlphabet {
				f.fillSrc(a, 128, byte(a>>8))
			}
			ref := newRefFSM(seqLen)
			engXfers := f.accepted()
			for step := 0; step < 200; step++ {
				addr := addrAlphabet[rng.Intn(len(addrAlphabet))]
				if rng.Uint64()&1 == 1 {
					size := sizeAlphabet[rng.Intn(len(sizeAlphabet))]
					refSt, _ := ref.feed(accStore, addr, size)
					_ = refSt // stores return nothing to the issuer
					if _, err := f.e.Store(0, f.e.cfg.Shadow(addr, 0), phys.Size64, size); err != nil {
						t.Fatalf("seq%d seed%d step%d: store: %v", seqLen, seed, step, err)
					}
				} else {
					refSt, _ := ref.feed(accLoad, addr, 0)
					got, _, err := f.e.Load(0, f.e.cfg.Shadow(addr, 0), phys.Size64)
					if err != nil {
						t.Fatalf("seq%d seed%d step%d: load: %v", seqLen, seed, step, err)
					}
					if got != refSt {
						t.Fatalf("seq%d seed%d step%d: engine load=%#x ref=%#x",
							seqLen, seed, step, got, refSt)
					}
				}
			}
			// The started-transfer lists must agree exactly.
			if len(*engXfers) != len(ref.started) {
				t.Fatalf("seq%d seed%d: engine started %d transfers, ref %d",
					seqLen, seed, len(*engXfers), len(ref.started))
			}
			for i, want := range ref.started {
				got := (*engXfers)[i]
				if got.Src != want.src || got.Dst != want.dst || got.Size != want.size {
					t.Fatalf("seq%d seed%d transfer %d: engine %v->%v[%d], ref %v->%v[%d]",
						seqLen, seed, i, got.Src, got.Dst, got.Size,
						want.src, want.dst, want.size)
				}
			}
		}
	}
}

// TestRepeatedFSMStatusOfCompletingLoad pins the success value: the
// completing load reports the full remaining size (transfer just
// started, zero startup in this config).
func TestRepeatedFSMStatusOfCompletingLoad(t *testing.T) {
	f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 5; c.StartupTime = 0 })
	f.fillSrc(0x2000, 64, 1)
	f.repStore(0, 0xa000, 64)
	f.repLoad(0, 0x2000)
	f.repStore(0, 0xa000, 64)
	f.repLoad(0, 0x2000)
	if st := f.repLoad(0, 0xa000); st != 64 {
		t.Fatalf("completing load = %d, want 64 remaining", st)
	}
}

// Exhaustively enumerate ALL access streams of length 6 over a 2-address
// alphabet for the 5-sequence and confirm engine/reference agreement —
// a complement to the randomized test with total coverage at small size.
func TestRepeatedFSMExhaustiveSmall(t *testing.T) {
	addrs := []phys.Addr{0x1000, 0x2000}
	const steps = 6
	// Each step has 4 choices: store/load × addr0/addr1 (fixed size 32).
	total := 1
	for i := 0; i < steps; i++ {
		total *= 4
	}
	for enc := 0; enc < total; enc++ {
		f := newEngine(t, ModeRepeated, func(c *Config) { c.SeqLen = 5; c.StartupTime = 0 })
		f.fillSrc(0x1000, 64, 1)
		f.fillSrc(0x2000, 64, 2)
		ref := newRefFSM(5)
		engXfers := f.accepted()
		e := enc
		for i := 0; i < steps; i++ {
			choice := e % 4
			e /= 4
			addr := addrs[choice%2]
			if choice < 2 {
				ref.feed(accStore, addr, 32)
				if _, err := f.e.Store(0, f.e.cfg.Shadow(addr, 0), phys.Size64, 32); err != nil {
					t.Fatal(err)
				}
			} else {
				refSt, _ := ref.feed(accLoad, addr, 0)
				got, _, err := f.e.Load(0, f.e.cfg.Shadow(addr, 0), phys.Size64)
				if err != nil {
					t.Fatal(err)
				}
				if got != refSt {
					t.Fatalf("stream %d step %d: engine=%#x ref=%#x", enc, i, got, refSt)
				}
			}
		}
		if len(*engXfers) != len(ref.started) {
			t.Fatalf("stream %s: engine %d transfers, ref %d",
				fmt.Sprintf("%06x", enc), len(*engXfers), len(ref.started))
		}
	}
}
