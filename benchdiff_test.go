package uldma_test

// cmd/benchdiff's CI regression gate (-fatal-threshold), pinned at the
// tool level: exit 1 when a model leaf moves past the ceiling, exit 0
// when all movement stays under it or only Host* (host-clock) leaves
// moved — those measure the machine running the diff, not the model,
// and stay exempt from every fatal path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// writeSnapshot drops a minimal benchdiff-shaped JSON document.
func writeSnapshot(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchdiffFatalThreshold(t *testing.T) {
	dir := buildTools(t)
	tmp := t.TempDir()
	base := writeSnapshot(t, tmp, "base.json",
		`{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1000}],"HostNs":100}`)
	cases := []struct {
		name     string
		current  string
		args     []string
		wantExit int
		want     string // substring of combined output
	}{
		{
			// +10% on a model leaf with a 5% ceiling: the regression
			// verdict, exit 1 (distinct from exit-2 usage failures).
			name:     "model-regression-fails",
			current:  `{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1100}],"HostNs":100}`,
			args:     []string{"-fatal-threshold", "5"},
			wantExit: 1,
			want:     "regression threshold exceeded",
		},
		{
			// The same +10% under a 20% ceiling passes.
			name:     "under-threshold-passes",
			current:  `{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1100}],"HostNs":100}`,
			args:     []string{"-fatal-threshold", "20"},
			wantExit: 0,
			want:     "1 flagged",
		},
		{
			// Host* leaves move with the machine running the diff; even
			// a 10x swing must never trip the gate.
			name:     "host-leaves-exempt",
			current:  `{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1000}],"HostNs":1000}`,
			args:     []string{"-fatal-threshold", "0"},
			wantExit: 0,
			want:     "host clock",
		},
		{
			// Default (-1) keeps the historical non-fatal behaviour.
			name:     "off-by-default",
			current:  `{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1100}],"HostNs":100}`,
			args:     nil,
			wantExit: 0,
			want:     "1 flagged",
		},
		{
			// Added leaves are deliberate surface growth, never fatal.
			name:     "added-leaves-not-fatal",
			current:  `{"Table1":[{"Method":"Kernel-level DMA","MeanPs":1000}],"Paging":[{"Policy":"stall","Transfers":6}],"HostNs":100}`,
			args:     []string{"-fatal-threshold", "0"},
			wantExit: 0,
			want:     "(added)",
		},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			cur := writeSnapshot(t, tmp, tc.name+".json", tc.current)
			args := append(append([]string{}, tc.args...), base, cur)
			var out bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, "benchdiff"), args...)
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("case %d: %v\n%s", i, err, out.String())
			}
			if exit != tc.wantExit {
				t.Fatalf("benchdiff %v exited %d, want %d\n%s", args, exit, tc.wantExit, out.String())
			}
			if !bytes.Contains(out.Bytes(), []byte(tc.want)) {
				t.Fatalf("benchdiff %v output lacks %q:\n%s", args, tc.want, out.String())
			}
		})
	}
}

// TestBenchdiffRepeatedKeys: ring rows repeat their Method across
// depths, so a change to any one of them must still flag exactly that
// leaf rather than vanish under a later row with the same key.
func TestBenchdiffRepeatedKeys(t *testing.T) {
	dir := buildTools(t)
	data, err := os.ReadFile("BENCH_ring.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	row := doc["Ring"].([]any)[1].(map[string]any) // ext-shadow, depth 1
	row["PerInitPs"] = 2 * row["PerInitPs"].(float64)
	mutated, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	cur := writeSnapshot(t, t.TempDir(), "ring.json", string(mutated))
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, "benchdiff"), "-fatal-threshold", "1", "BENCH_ring.json", cur)
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("benchdiff exited with %v, want exit 1\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte(" 1 flagged")) {
		t.Fatalf("want exactly 1 flagged leaf:\n%s", out.String())
	}
}

// TestBenchdiffComparesEveryLeaf: for every committed snapshot and JSON
// golden, benchdiff compares as many paths as the document has numeric
// leaves — no two leaves flatten onto one key.
func TestBenchdiffComparesEveryLeaf(t *testing.T) {
	dir := buildTools(t)
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, goldens...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out := runTool(t, dir, "benchdiff", path, path)
		want := fmt.Sprintf(": %d leaves compared,", numericLeaves(doc))
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("%s: benchdiff summary lacks %q:\n%s", path, want, out)
		}
	}
}

// numericLeaves counts the numbers in a decoded JSON document.
func numericLeaves(v any) int {
	n := 0
	switch t := v.(type) {
	case map[string]any:
		for _, c := range t {
			n += numericLeaves(c)
		}
	case []any:
		for _, c := range t {
			n += numericLeaves(c)
		}
	case float64:
		n = 1
	}
	return n
}
