package machine

// Property tests for world snapshot/restore: a restored or cloned
// world must be observationally indistinguishable from a freshly built
// one — same guest results, same simulated timestamps, same machine
// fingerprint — and snapshots must be immune to post-snapshot writes
// (copy-on-write isolation). `make ci` runs these under -race, which
// also pins the contract that clones of one snapshot share pages
// safely across goroutines.

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// snapshotPresets is every machine preset the harness builds worlds
// from, in the paired-DMA shape the kernel workload needs.
func snapshotPresets() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"Alpha3000TC", Alpha3000TC(dma.ModePaired, 0)},
		{"PCI33", PCI(dma.ModePaired, 0, 33*sim.MHz)},
		{"Workstation1994", Workstation1994(dma.ModePaired, 0)},
		{"Workstation2000", Workstation2000(dma.ModePaired, 0)},
	}
}

// dmaWorkload spawns a process that fills a source page and traps into
// the kernel for a DMA, then returns the syscall status and the
// settled clock. Identical worlds must produce identical pairs.
func dmaWorkload(t *testing.T, m *Machine) (uint64, sim.Time) {
	t.Helper()
	const srcVA, dstVA = vm.VAddr(0x10000), vm.VAddr(0x20000)
	var status uint64
	p := m.NewProcess("w", func(ctx *proc.Context) error {
		for i := 0; i < 4; i++ {
			if err := ctx.Store(srcVA+vm.VAddr(8*i), phys.Size64, uint64(0x2222*(i+1))); err != nil {
				return err
			}
		}
		st, err := ctx.Syscall(1 /* kernel.SysDMA */, uint64(srcVA), uint64(dstVA), 64)
		status = st
		return err
	})
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), srcVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), dstVA, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(proc.NewRoundRobin(64), 100_000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	m.Settle()
	return status, m.Clock.Now()
}

// TestSnapshotRestoreEquivalence is the central property: for every
// preset, a clone of a pristine snapshot and the origin restored from
// it behave exactly like a fresh machine.New — guest status, simulated
// end time and full machine fingerprint.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, tc := range snapshotPresets() {
		t.Run(tc.name, func(t *testing.T) {
			fresh := MustNew(tc.cfg)
			wantStatus, wantEnd := dmaWorkload(t, fresh)
			wantFP := fresh.Fingerprint()

			origin := MustNew(tc.cfg)
			snap, err := origin.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// Clone of the pristine snapshot ≡ fresh machine.
			clone, err := NewFromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if st, end := dmaWorkload(t, clone); st != wantStatus || end != wantEnd {
				t.Fatalf("clone: (status, end) = (%#x, %v), fresh got (%#x, %v)", st, end, wantStatus, wantEnd)
			}
			if fp := clone.Fingerprint(); fp != wantFP {
				t.Fatalf("clone fingerprint diverged from fresh:\n  clone %v\n  fresh %v", fp, wantFP)
			}

			// The origin itself ≡ fresh, and after Restore it is again.
			if st, end := dmaWorkload(t, origin); st != wantStatus || end != wantEnd {
				t.Fatalf("origin first run: (%#x, %v), want (%#x, %v)", st, end, wantStatus, wantEnd)
			}
			if err := origin.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if st, end := dmaWorkload(t, origin); st != wantStatus || end != wantEnd {
				t.Fatalf("origin after restore: (%#x, %v), want (%#x, %v)", st, end, wantStatus, wantEnd)
			}
			if fp := origin.Fingerprint(); fp != wantFP {
				t.Fatalf("restored-origin fingerprint diverged from fresh:\n  origin %v\n  fresh  %v", fp, wantFP)
			}

			// Mid-life snapshot: capture the used world, clone it, and
			// both must continue identically.
			used, err := origin.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			usedClone, err := NewFromSnapshot(used)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := usedClone.Fingerprint(), origin.Fingerprint(); got != want {
				t.Fatalf("mid-life clone fingerprint diverged:\n  clone  %v\n  origin %v", got, want)
			}
			st1, end1 := dmaWorkload(t, origin)
			st2, end2 := dmaWorkload(t, usedClone)
			if st1 != st2 || end1 != end2 {
				t.Fatalf("mid-life continuation diverged: origin (%#x, %v), clone (%#x, %v)", st1, end1, st2, end2)
			}
			if got, want := usedClone.Fingerprint(), origin.Fingerprint(); got != want {
				t.Fatalf("post-continuation fingerprints diverged:\n  clone  %v\n  origin %v", got, want)
			}

			// In-place Restore is origin-only; a clone must refuse.
			if err := clone.Restore(snap); err == nil {
				t.Fatal("clone.Restore(foreign snapshot) succeeded, want error")
			}
		})
	}
}

// TestSnapshotCOWIsolation pins the copy-on-write contract: a snapshot
// is immutable under post-snapshot writes by the origin OR by any
// clone, and clones never see each other's writes.
func TestSnapshotCOWIsolation(t *testing.T) {
	const addr = phys.Addr(0x100000)
	const pristine = uint64(0xabababababababab)

	origin := MustNew(Alpha3000TC(dma.ModePaired, 0))
	if err := origin.Mem.Fill(addr, 64, 0xab); err != nil {
		t.Fatal(err)
	}
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	read := func(m *Machine, who string) uint64 {
		v, err := m.Mem.Read(addr, phys.Size64)
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		return v
	}

	// Origin mutates after the snapshot...
	if err := origin.Mem.Fill(addr, 64, 0xcd); err != nil {
		t.Fatal(err)
	}
	// ...and a clone taken afterwards still sees the snapshot bytes.
	c1, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(c1, "clone1"); got != pristine {
		t.Fatalf("clone sees origin's post-snapshot write: %#x", got)
	}

	// A clone's writes stay private: invisible to the origin, to the
	// snapshot, and to later clones.
	if err := c1.Mem.Fill(addr, 64, 0xef); err != nil {
		t.Fatal(err)
	}
	if got := read(origin, "origin"); got != 0xcdcdcdcdcdcdcdcd {
		t.Fatalf("clone write leaked into origin: %#x", got)
	}
	c2, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(c2, "clone2"); got != pristine {
		t.Fatalf("snapshot polluted: clone2 reads %#x", got)
	}

	// Restoring the origin rewinds its memory to the snapshot bytes.
	if err := origin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := read(origin, "restored origin"); got != pristine {
		t.Fatalf("restore did not rewind memory: %#x", got)
	}
	// And clone1's private write survived all of it.
	if got := read(c1, "clone1 after"); got != 0xefefefefefefefef {
		t.Fatalf("clone1 lost its private write: %#x", got)
	}
}
