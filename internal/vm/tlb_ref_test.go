package vm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"uldma/internal/phys"
)

// refEntry and refTLB are a plain fully-associative LRU TLB: a linear
// scan over explicit (asid, vpn, gen) tags with a valid flag, no L0
// hint, no packed key, and a Skip that visits every entry. TLB must
// match it access for access.
type refEntry struct {
	asid     int
	vpn, gen uint64
	pte      PTE
	used     uint64
	valid    bool
}

type refTLB struct {
	entries      []refEntry
	tick         uint64
	hits, misses uint64
}

func (r *refTLB) translate(as *AddressSpace, va VAddr, access Access) (phys.Addr, bool, error) {
	r.tick++
	vpn := uint64(va) / as.PageSize()
	off := phys.Addr(uint64(va) % as.PageSize())
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.asid == as.ASID() && e.vpn == vpn && e.gen == as.Generation() {
			if !e.pte.Prot.Can(access.Need()) {
				return 0, true, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.ASID()}
			}
			e.used = r.tick
			r.hits++
			return e.pte.Frame + off, true, nil
		}
	}
	r.misses++
	pte, ok := as.Lookup(va)
	if !ok {
		return 0, false, &Fault{VA: va, Access: access, Kind: FaultUnmapped, ASID: as.ASID()}
	}
	victim := 0
	for i := range r.entries {
		if !r.entries[i].valid {
			victim = i
			break
		}
		if r.entries[i].used < r.entries[victim].used {
			victim = i
		}
	}
	r.entries[victim] = refEntry{asid: as.ASID(), vpn: vpn, gen: as.Generation(), pte: pte, used: r.tick, valid: true}
	if !pte.Prot.Can(access.Need()) {
		return 0, false, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.ASID()}
	}
	return pte.Frame + off, false, nil
}

func (r *refTLB) skip(since, n uint64) {
	for i := range r.entries {
		if r.entries[i].used > since {
			r.entries[i].used += n
		}
	}
	r.tick += n
}

func (r *refTLB) flush() {
	for i := range r.entries {
		r.entries[i].valid = false
	}
}

// compareRef reports the first difference between t and r: tick,
// counters, and per slot the validity, tag, PTE and LRU stamp (so an
// eviction that picked another victim shows up at the next step).
func compareRef(t *TLB, r *refTLB) error {
	if t.tick != r.tick || t.ctr.Hits.Value() != r.hits || t.ctr.Misses.Value() != r.misses {
		return fmt.Errorf("tick/hits/misses %d/%d/%d, reference %d/%d/%d",
			t.tick, t.ctr.Hits.Value(), t.ctr.Misses.Value(), r.tick, r.hits, r.misses)
	}
	for i := range r.entries {
		e, w := &t.entries[i], &r.entries[i]
		if e.used != w.used {
			return fmt.Errorf("slot %d: LRU stamp %d, reference %d", i, e.used, w.used)
		}
		if (e.key != 0) != w.valid {
			return fmt.Errorf("slot %d: valid %v, reference %v", i, e.key != 0, w.valid)
		}
		if !w.valid {
			continue
		}
		if e.asid != w.asid || e.vpn != w.vpn || e.gen != w.gen || e.pte != w.pte {
			return fmt.Errorf("slot %d: tag (%d, %#x, %d) %+v, reference (%d, %#x, %d) %+v",
				i, e.asid, e.vpn, e.gen, e.pte, w.asid, w.vpn, w.gen, w.pte)
		}
		if e.key != tlbKey(e.asid, e.vpn) {
			return fmt.Errorf("slot %d: key %#x, want %#x", i, e.key, tlbKey(e.asid, e.vpn))
		}
	}
	return nil
}

// TestTLBMatchesReference: on seeded streams in which twelve address
// spaces share the same virtual pages (as the initiate workload's
// guests do), some of them at VPNs whose packed keys collide across
// ASIDs, TLB agrees with the linear-scan reference after every step —
// translations (hit or miss, physical address, fault), unmapped-address
// misses, generation bumps (Map over a mapped page, Unmap), Flush,
// Snapshot/Restore and Skip windows, both ones the L0 entry alone
// spans and older ones — on hit/miss, PA, fault kind, victim choice
// and every LRU stamp.
func TestTLBMatchesReference(t *testing.T) {
	// Base VPNs, and the same VPNs with bits above tlbKey's exact range:
	// (asid a, vpn v | a'<<48) and (asid a^a', vpn v) share a key.
	var vpns []uint64
	for v := uint64(0); v < 6; v++ {
		vpns = append(vpns, v, v|1<<48, v|3<<48)
	}
	if tlbKey(0, 1<<48|2) != tlbKey(1, 2) {
		t.Fatal("the stream's colliding VPNs no longer collide in tlbKey")
	}
	for _, size := range []int{4, 16, 32} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("size%d/seed%d", size, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(size)))
				spaces := make([]*AddressSpace, 12)
				for a := range spaces {
					spaces[a] = NewAddressSpace(a, pageSize)
					for i, v := range vpns {
						if rng.IntN(5) == 0 {
							continue // leave some pages unmapped
						}
						prot := Read | Write
						if i%4 == 1 {
							prot = Read
						}
						spaces[a].Map(VAddr(v*pageSize), phys.Addr(0x100000+(a*len(vpns)+i)*pageSize), prot)
					}
				}
				tlb := NewTLB(size)
				ref := &refTLB{entries: make([]refEntry, size)}
				var (
					snap     *TLBSnapshot
					refSnap  refTLB
					asSnaps  []*ASSnapshot
					mark     uint64
					as       = spaces[0]
					va       VAddr
					accesses = []Access{AccessLoad, AccessStore, AccessRMW}
				)
				for step := 0; step < 4000; step++ {
					var what string
					switch op := rng.IntN(100); {
					case op < 80:
						if rng.IntN(2) == 0 { // otherwise repeat the last address
							as = spaces[rng.IntN(len(spaces))]
							va = VAddr(vpns[rng.IntN(len(vpns))]*pageSize + rng.Uint64N(pageSize))
						}
						acc := accesses[rng.IntN(len(accesses))]
						what = fmt.Sprintf("%v asid %d va %v", acc, as.ASID(), va)
						pa, hit, err := tlb.Translate(as, va, acc)
						wpa, whit, werr := ref.translate(as, va, acc)
						if pa != wpa || hit != whit || !reflect.DeepEqual(err, werr) {
							t.Fatalf("step %d %s: (%v, %v, %v), reference (%v, %v, %v)", step, what, pa, hit, err, wpa, whit, werr)
						}
					case op < 83:
						s := spaces[rng.IntN(len(spaces))]
						v := vpns[rng.IntN(len(vpns))]
						what = fmt.Sprintf("remap asid %d vpn %#x", s.ASID(), v)
						s.Map(VAddr(v*pageSize), phys.Addr(0x800000+rng.IntN(64)*pageSize), Read|Write)
					case op < 84:
						s := spaces[rng.IntN(len(spaces))]
						what = fmt.Sprintf("unmap asid %d", s.ASID())
						s.Unmap(VAddr(vpns[rng.IntN(len(vpns))] * pageSize))
					case op < 85:
						what = "flush"
						tlb.Flush()
						ref.flush()
					case op < 86:
						acc := accesses[rng.IntN(len(accesses))]
						what = fmt.Sprintf("probe %v asid %d va %v", acc, as.ASID(), va)
						pa, hit, kind, ok := tlb.Probe(as, va, acc)
						wpa, whit, werr := ref.translate(as, va, acc)
						if f, _ := werr.(*Fault); pa != wpa || hit != whit || ok != (werr == nil) || !ok && kind != f.Kind {
							t.Fatalf("step %d %s: (%v, %v, %v, %v), reference (%v, %v, %v)", step, what, pa, hit, kind, ok, wpa, whit, werr)
						}
					case op < 88:
						what = "snapshot"
						snap = tlb.Snapshot()
						refSnap = refTLB{entries: append([]refEntry(nil), ref.entries...), tick: ref.tick, hits: ref.hits, misses: ref.misses}
						asSnaps = asSnaps[:0]
						for _, s := range spaces {
							asSnaps = append(asSnaps, s.Snapshot())
						}
					case op < 90:
						if snap == nil {
							continue
						}
						what = "restore"
						if err := tlb.Restore(snap); err != nil {
							t.Fatal(err)
						}
						*ref = refTLB{entries: append(ref.entries[:0], refSnap.entries...), tick: refSnap.tick, hits: refSnap.hits, misses: refSnap.misses}
						for i, s := range spaces {
							if err := s.Restore(asSnaps[i]); err != nil {
								t.Fatal(err)
							}
						}
					case op < 94:
						what = "mark"
						mark = tlb.Tick()
					default:
						since := mark
						if rng.IntN(3) == 0 {
							since = rng.Uint64N(tlb.Tick() + 1)
						}
						n := rng.Uint64N(50)
						what = fmt.Sprintf("skip(%d, %d) at tick %d", since, n, tlb.Tick())
						tlb.Skip(since, n)
						ref.skip(since, n)
					}
					if err := compareRef(tlb, ref); err != nil {
						t.Fatalf("step %d, after %s: %v", step, what, err)
					}
				}
			})
		}
	}
}
