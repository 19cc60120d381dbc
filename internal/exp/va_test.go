package exp

// Parity and render-determinism for the virtual-address DMA
// experiments: every cell is its own world, so vasweep and paging must
// produce byte-identical results at any worker count, and their
// renderers must be pure.

import (
	"reflect"
	"strings"
	"testing"

	userdma "uldma/internal/core"
)

func TestVASweepParity(t *testing.T) {
	const iters = 50
	ref, err := RunNamed("vasweep", Params{Iters: iters, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCmp, wantTLB := Collect[userdma.VACompareRow](ref), Collect[userdma.IOTLBPoint](ref)
	if len(wantCmp) != 4 {
		t.Fatalf("vasweep produced %d Table 1 rows, want 4", len(wantCmp))
	}
	if len(wantTLB) != len(VASweepPages()) {
		t.Fatalf("vasweep produced %d IOTLB points, want %d", len(wantTLB), len(VASweepPages()))
	}
	for _, w := range []int{2, 4} {
		r, err := RunNamed("vasweep", Params{Iters: iters, Procs: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		cmp, tlb := Collect[userdma.VACompareRow](r), Collect[userdma.IOTLBPoint](r)
		if !reflect.DeepEqual(cmp, wantCmp) {
			t.Errorf("workers=%d: Table 1 comparison diverged", w)
		}
		if !reflect.DeepEqual(tlb, wantTLB) {
			t.Errorf("workers=%d: IOTLB sweep diverged", w)
		}
	}
}

func TestPagingParity(t *testing.T) {
	want := runRows[userdma.PagingResult](t, "paging", Params{Procs: 1})
	if got := len(PagingPolicies()) * len(PagingPages()); len(want) != got {
		t.Fatalf("paging produced %d cells, want %d", len(want), got)
	}
	for _, w := range []int{3, 8} {
		if got := runRows[userdma.PagingResult](t, "paging", Params{Procs: w}); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: paging grid diverged from serial run", w)
		}
	}
}

func TestVARendersDeterministic(t *testing.T) {
	for _, name := range []string{"vasweep", "paging"} {
		p := Params{Iters: 30, Procs: 4}
		r, err := RunNamed(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []Format{Text, Markdown} {
			a, err := RenderNamed(name, f, r, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := RenderNamed(name, f, r, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a != b {
				t.Errorf("%s format %d: renderer is not pure", name, f)
			}
			if a == "" {
				t.Errorf("%s format %d: empty render", name, f)
			}
		}
		// JSON rows flatten without loss.
		switch name {
		case "vasweep":
			cmp, iotlb := Collect[userdma.VACompareRow](r), Collect[userdma.IOTLBPoint](r)
			if len(cmp) != 4 || len(iotlb) != len(VASweepPages()) {
				t.Errorf("vasweep wire rows incomplete: %d cmp, %d iotlb", len(cmp), len(iotlb))
			}
			for _, pt := range iotlb {
				if fp, _ := wireRow(t, pt)["Fingerprint"].(string); len(fp) != 16 {
					t.Errorf("IOTLB fingerprint %q not 16 hex digits", fp)
				}
			}
		case "paging":
			rows := Collect[userdma.PagingResult](r)
			if len(rows) != len(PagingPolicies())*len(PagingPages()) {
				t.Errorf("paging wire rows incomplete: %d", len(rows))
			}
			for _, pt := range rows {
				if fp, _ := wireRow(t, pt)["Fingerprint"].(string); len(fp) != 16 {
					t.Errorf("paging fingerprint %q not 16 hex digits", fp)
				}
			}
		}
	}
}

func TestVAListed(t *testing.T) {
	list := List()
	for _, name := range []string{"vasweep", "paging"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
		if !strings.Contains(list, name) {
			t.Errorf("-list output omits %q", name)
		}
	}
}
