package uldma_test

// TestTraceGolden pins the Perfetto trace_event documents the tools
// export through -trace-out. The traced scenarios are serial and
// simulated-deterministic, so the documents are part of the tools'
// byte-level contract exactly like the text and JSON goldens:
//
//	make trace-golden     (= go test -run TestTraceGolden -update .)
//
// Two documents are pinned: dmabench's default scenario (one Table-1
// initiation world per method, four process rows) and faultsim's
// -replay of faultsearch seed 1 (the cluster-wide view of the reliable
// channel surviving its seeded fault plan).

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

var traceGoldenCases = []struct {
	file string
	tool string
	args []string // -trace-out FILE is appended
}{
	{"dmabench_trace.json", "dmabench", []string{"-iters", "5"}},
	{"faultsim_replay.json", "faultsim", []string{"-replay", "1"}},
}

func TestTraceGolden(t *testing.T) {
	dir := buildTools(t)
	for _, tc := range traceGoldenCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			render := func(extra ...string) []byte {
				out := filepath.Join(t.TempDir(), "trace.json")
				args := append(append([]string{}, tc.args...), extra...)
				args = append(args, "-trace-out", out)
				runTool(t, dir, tc.tool, args...)
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatalf("%s %v wrote no trace: %v", tc.tool, args, err)
				}
				return data
			}
			got := render()
			path := filepath.Join("testdata", "golden", tc.file)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run make trace-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %v trace drifted from %s (run make trace-golden to accept)", tc.tool, tc.args, path)
			}
			// The traced scenarios are serial: the document must not
			// depend on the worker count.
			if again := render("-procs", "3"); !bytes.Equal(again, want) {
				t.Fatalf("%s %v -procs 3 trace diverged from the golden", tc.tool, tc.args)
			}
		})
	}
}
