package dma_test

import (
	"testing"

	userdma "uldma/internal/core"
	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// TestWindowOfMatchesDecode: at the first and last byte of every
// window, Config.WindowOf names the window the engine's decode
// dispatches to, for every method's calibrated preset, its
// virtual-address variant and cluster layouts with a remote window.
// The last layout overlaps the remote and VA windows, where a separate
// WindowOf could test them in a different order than the decode does.
func TestWindowOfMatchesDecode(t *testing.T) {
	type layout struct {
		name string
		cfg  dma.Config
	}
	var layouts []layout
	for _, m := range userdma.AllMethods() {
		layouts = append(layouts,
			layout{m.Name(), userdma.ConfigFor(m).Engine},
			layout{m.Name() + " (VA)", userdma.VAConfigFor(m, 0).Engine})
	}
	cluster := machine.EnableVirtualDMA(machine.Alpha3000TC(dma.ModeExtended, 0)).Engine
	if cluster.RemoteBase == 0 {
		t.Fatal("cluster preset has no remote window")
	}
	layouts = append(layouts, layout{"cluster", cluster})
	overlap := cluster
	overlap.VABase = cluster.RemoteBase + 0x10_0000
	layouts = append(layouts, layout{"remote over VA", overlap})

	for _, l := range layouts {
		c := l.cfg
		e, err := dma.New(c, new(sim.EventQueue), phys.New(int(c.MemSize)))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		windows := []struct {
			name string
			base phys.Addr
			size uint64
		}{
			{"shadow", c.ShadowBase, c.ShadowWindowSize()},
			{"ctx", c.CtxPageBase, c.CtxWindowSize()},
			{"control", c.ControlBase, c.PageSize},
			{"atomic", c.AtomicBase, c.AtomicWindowSize()},
			{"ring", c.RingBase, c.RingWindowSize()},
			{"remote", c.RemoteBase, c.RemoteWindowSize()},
			{"va", c.VABase, c.VAWindowSize()},
		}
		for _, w := range windows {
			if w.base == 0 || w.size == 0 {
				continue
			}
			for _, a := range []phys.Addr{w.base, w.base + phys.Addr(w.size) - 1} {
				named, decoded := c.WindowOf(a), e.DecodedWindow(a)
				if named != decoded {
					t.Errorf("%s: %s window byte %v: WindowOf %q, decode %q", l.name, w.name, a, named, decoded)
				}
				if named == "" {
					t.Errorf("%s: %s window byte %v named no window", l.name, w.name, a)
				}
			}
		}
	}
	if got := overlap.WindowOf(overlap.VABase); got != "remote" {
		t.Errorf("byte in both the remote and VA windows named %q, want the decode's %q", got, "remote")
	}
}
