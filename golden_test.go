package uldma_test

// Golden-file and smoke tests for the cmd/ tools. The goldens under
// testdata/golden were pinned from the tools BEFORE the experiment-
// engine refactor; every rendered byte is part of the tools' contract,
// for any -procs value. Regenerate deliberately with:
//
//	make golden     (= go test -run TestGolden -update .)

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"uldma/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from current tool output")

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// goldenExamples are the examples pinned by TestGoldenExamples: each
// reaches Handle.Wait, directly or through internal/msg, except atomics
// (the engine's atomic window).
var goldenExamples = []string{"quickstart", "nowtransfer", "interrupts", "msgring", "bsp", "atomics"}

// buildTools compiles every cmd/ binary, and each pinned example as
// example-<name>, once per test process.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "uldma-tools-*")
		if buildErr != nil {
			return
		}
		pkgs := map[string]string{}
		for _, tool := range []string{"dmabench", "report", "oslat", "clustersim", "attacksim", "faultsim", "benchdiff"} {
			pkgs[tool] = "./cmd/" + tool
		}
		for _, ex := range goldenExamples {
			pkgs["example-"+ex] = "./examples/" + ex
		}
		for bin, pkg := range pkgs {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, bin), pkg)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				buildDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

func runTool(t *testing.T, dir, tool string, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, stderr.String())
	}
	return stdout.Bytes()
}

// runToolErr runs a tool expected to FAIL, returning its exit code,
// stdout and stderr. A clean exit is itself a test failure.
func runToolErr(t *testing.T, dir, tool string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if err == nil {
		t.Fatalf("%s %v: expected a non-zero exit", tool, args)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return ee.ExitCode(), out.String(), errOut.String()
}

// goldenCases is the pinned (tool, flags) -> file matrix. The flags
// deliberately use non-default counts so regeneration stays cheap.
var goldenCases = []struct {
	file string
	tool string
	args []string
}{
	{"dmabench_default.txt", "dmabench", []string{"-iters", "120"}},
	{"dmabench_sweep.txt", "dmabench", []string{"-iters", "60", "-sweep"}},
	{"dmabench_breakeven.txt", "dmabench", []string{"-iters", "60", "-breakeven"}},
	{"dmabench_trend.txt", "dmabench", []string{"-iters", "30", "-trend"}},
	{"dmabench_all.json", "dmabench", []string{"-iters", "60", "-json", "-sweep", "-breakeven", "-trend", "-comparators", "-contention"}},
	// The descriptor-ring surfaces: batched-initiation depth sweep and
	// register-context churn, text + JSON, plus the report's markdown
	// rendering. Both are opt-in flags, so the pre-ring goldens above
	// stay byte-identical.
	{"dmabench_ring.txt", "dmabench", []string{"-iters", "60", "-ring", "-ringchurn"}},
	{"dmabench_ring.json", "dmabench", []string{"-iters", "60", "-json", "-ring", "-ringchurn"}},
	{"report_ring.md", "report", []string{"-iters", "60", "-seeds", "2", "-ring"}},
	// The virtual-address plane: Table 1 through the IOMMU + the IOTLB
	// hit-rate sweep (-va) and the paging recovery-policy grid
	// (-paging), text + JSON, plus the report's markdown rendering.
	// All opt-in, so the earlier goldens stay byte-identical.
	{"dmabench_va.txt", "dmabench", []string{"-iters", "60", "-va", "-paging"}},
	{"dmabench_va.json", "dmabench", []string{"-iters", "60", "-json", "-va", "-paging"}},
	{"report_va.md", "report", []string{"-iters", "60", "-seeds", "2", "-va"}},
	// The -only registry subset.
	{"report_only.md", "report", []string{"-iters", "60", "-only", "table1,breakeven,oslat"}},
	{"report.md", "report", []string{"-iters", "100", "-seeds", "8"}},
	{"report.json", "report", []string{"-iters", "100", "-json"}},
	{"oslat.txt", "oslat", []string{"-iters", "1000"}},
	{"faultsim.txt", "faultsim", []string{"-msgs", "8", "-seeds", "2", "-depth", "3"}},
	{"faultsim.json", "faultsim", []string{"-msgs", "8", "-seeds", "2", "-depth", "3", "-json"}},
	// The default sharded-NOW world. For -scale, the -procs re-run below
	// varies the INTRA-world shard worker count — the bytes must still
	// match, which pins the parallel engine's determinism contract at the
	// tool level.
	{"clustersim_scale.txt", "clustersim", []string{"-scale"}},
	// The hosted-machine world: full machines on the sharded engine, one
	// world per initiation protocol. Small on purpose — the -procs re-run
	// pins the machine path's determinism at the tool level too.
	{"clustersim_scalemachine.txt", "clustersim",
		[]string{"-scale", "-protocol", "all", "-nodes", "16", "-arrival", "10000", "-ms", "1"}},
	// The JSON documents of oslat and clustersim, and dmabench's bus
	// transaction listing: each encoder and renderer is pinned byte for
	// byte, not just by a smoke substring.
	{"oslat.json", "oslat", []string{"-iters", "1000", "-json"}},
	{"clustersim.json", "clustersim", []string{"-msgs", "4", "-json"}},
	{"clustersim_scale.json", "clustersim", []string{"-scale", "-json"}},
	{"clustersim_scalemachine.json", "clustersim",
		[]string{"-scale", "-json", "-protocol", "all", "-nodes", "16", "-arrival", "10000", "-ms", "1"}},
	{"dmabench_bustrace.txt", "dmabench", []string{"-iters", "5", "-trace"}},
	// The adversarial studies: every figure replay with a small
	// exhaustive search and campaign, and Figure 6 rebuilt by hand as a
	// custom duel from assembler text.
	{"attacksim.txt", "attacksim", []string{"-slots", "2", "-seeds", "3"}},
	{"attacksim_custom.txt", "attacksim", []string{"-seqlen", "4", "-share-a",
		"-victim", "store B 64; mb; load A; store B 64; mb; load A", "-attacker", "load A", "-schedule", "VVVVVAV"}},
}

// TestGolden pins the rendered output of every tool: text, markdown and
// JSON must be byte-identical to the pre-refactor goldens, at more than
// one worker count.
func TestGolden(t *testing.T) {
	dir := buildTools(t)
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.file)
			got := runTool(t, dir, tc.tool, tc.args...)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run make golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %v drifted from %s (run make golden to accept)", tc.tool, tc.args, path)
			}
			// The parallel runner's contract: same bytes for any -procs.
			for _, procs := range []string{"1", "3"} {
				again := runTool(t, dir, tc.tool, append(tc.args, "-procs", procs)...)
				if !bytes.Equal(again, want) {
					t.Fatalf("%s %v -procs %s diverged from the golden", tc.tool, tc.args, procs)
				}
			}
		})
	}
}

// TestGoldenExamples pins the stdout of the examples that reach
// Handle.Wait, byte for byte. The examples take no flags.
func TestGoldenExamples(t *testing.T) {
	dir := buildTools(t)
	for _, ex := range goldenExamples {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", "example_"+ex+".txt")
			got := runTool(t, dir, "example-"+ex)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run make golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("example %s drifted from %s (run make golden to accept)", ex, path)
			}
		})
	}
}

// TestSmoke exercises every binary end to end with tiny workloads,
// including the new -list and -json frontends.
func TestSmoke(t *testing.T) {
	dir := buildTools(t)
	cases := []struct {
		name string
		tool string
		args []string
		want string // substring the output must contain
	}{
		{"dmabench", "dmabench", []string{"-iters", "5"}, "Table 1"},
		{"dmabench-list", "dmabench", []string{"-list"}, "bussweep"},
		{"dmabench-trace", "dmabench", []string{"-iters", "5", "-trace"}, "bus transactions"},
		{"dmabench-va", "dmabench", []string{"-iters", "5", "-va", "-tlb", "4"}, "IOTLB hit rate"},
		{"dmabench-paging", "dmabench", []string{"-iters", "5", "-paging"}, "Device paging"},
		{"dmabench-va-json", "dmabench", []string{"-iters", "5", "-json", "-va", "-paging", "-procs", "2"}, "\"Paging\""},
		{"dmabench-list-va", "dmabench", []string{"-list"}, "vasweep"},
		{"report", "report", []string{"-iters", "10", "-seeds", "2"}, "## F5/F6/F8"},
		{"report-va", "report", []string{"-iters", "10", "-seeds", "2", "-va"}, "Device paging"},
		{"report-list", "report", []string{"-list"}, "breakeven"},
		{"report-json", "report", []string{"-iters", "10", "-json"}, "\"BusSweep\""},
		{"oslat", "oslat", []string{"-iters", "200"}, "WITHIN BAND"},
		{"report-only", "report", []string{"-iters", "10", "-only", "oslat"}, "null syscall"},
		{"oslat-json", "oslat", []string{"-iters", "200", "-json", "-procs", "2"}, "\"CPUCycles\""},
		{"oslat-list", "oslat", []string{"-list"}, "oslat"},
		{"clustersim", "clustersim", []string{"-msgs", "4"}, "init share"},
		{"clustersim-json", "clustersim", []string{"-msgs", "4", "-json", "-procs", "2"}, "\"LatencyPs\""},
		{"clustersim-hist", "clustersim", []string{"-msgs", "4", "-hist", "-gigabit=false"}, "latency distribution"},
		{"attacksim", "attacksim", []string{"-slots", "2", "-seeds", "3"}, "exhaustive search"},
		{"attacksim-list", "attacksim", []string{"-list"}, "campaign"},
		{"faultsim", "faultsim", []string{"-msgs", "4", "-seeds", "2", "-depth", "2"}, "Reliable channel under loss"},
		{"faultsim-list", "faultsim", []string{"-list"}, "faultsweep"},
		{"faultsim-json", "faultsim", []string{"-msgs", "4", "-seeds", "2", "-depth", "2", "-json", "-procs", "2"}, "\"Sweep\""},
		{"clustersim-scale", "clustersim", []string{"-scale", "-nodes", "16", "-shards", "2", "-ms", "1"}, "goodput"},
		{"clustersim-scale-json", "clustersim", []string{"-scale", "-json", "-nodes", "16", "-shards", "2", "-ms", "1", "-procs", "2"}, "\"Shards\""},
		{"clustersim-scale-bench", "clustersim", []string{"-scale", "-bench", "-nodes", "16", "-shards", "2", "-ms", "1"}, "\"HostCPUs\""},
		{"clustersim-scalemachine", "clustersim", []string{"-scale", "-protocol", "extshadow", "-nodes", "8", "-shards", "2", "-ms", "1"}, "Machines at cluster scale"},
		{"clustersim-scalemachine-json", "clustersim", []string{"-scale", "-protocol", "extshadow", "-nodes", "8", "-shards", "2", "-ms", "1", "-json", "-procs", "2"}, "\"MachineDigest\""},
		{"clustersim-scalemachine-bench", "clustersim", []string{"-scale", "-protocol", "kernel", "-nodes", "8", "-shards", "2", "-ms", "1", "-bench"}, "\"BenchMachine\""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out := runTool(t, dir, tc.tool, tc.args...)
			if !bytes.Contains(out, []byte(tc.want)) {
				t.Fatalf("%s %v output lacks %q:\n%s", tc.tool, tc.args, tc.want, out)
			}
		})
	}
}

// TestVAFlagRejection pins dmabench's virtual-address flag validation:
// an invalid combination must die with exit status 2 and a flag-level
// message before any simulation spins up, matching the -scale
// precedent above.
func TestVAFlagRejection(t *testing.T) {
	checkFlagRejections(t, "dmabench", []flagCase{
		{"tlb-without-va", []string{"-tlb", "4"}, "needs -va"},
		{"negative-tlb", []string{"-va", "-tlb", "-1"}, "-tlb -1"},
		{"zero-iters", []string{"-va", "-iters", "0"}, "-iters 0"},
	})
}

// TestCountFlagRejection pins the count floors: an -iters or -msgs
// below 1 would print rows of measurements never made (0.00 µs Table 1
// rows, a JSON header claiming the count), and a negative -slots,
// -seeds or -depth would print a verdict over a run of minus N (or
// silently run the default), so each tool dies with exit status 2
// before any world is built. attacksim's -figure and -seqlen are
// checked the same way, before the custom duel prints its banner.
func TestCountFlagRejection(t *testing.T) {
	checkFlagRejections(t, "dmabench", []flagCase{
		{"dmabench-zero-iters", []string{"-iters", "0"}, "-iters 0"},
		{"dmabench-zero-iters-json", []string{"-iters", "0", "-json"}, "-iters 0"},
	})
	checkFlagRejections(t, "report", []flagCase{
		{"report-zero-iters", []string{"-iters", "0"}, "-iters 0"},
		{"report-negative-iters-json", []string{"-iters", "-3", "-json"}, "-iters -3"},
	})
	checkFlagRejections(t, "benchdiff", []flagCase{
		{"benchdiff-zero-iters", []string{"-iters", "0"}, "-iters 0"},
		{"benchdiff-nan-tol", []string{"-tol", "NaN"}, "-tol NaN"},
	})
	checkFlagRejections(t, "faultsim", []flagCase{
		{"faultsim-zero-msgs", []string{"-msgs", "0"}, "-msgs 0"},
		{"faultsim-zero-msgs-json", []string{"-msgs", "0", "-json"}, "-msgs 0"},
		{"faultsim-negative-seeds", []string{"-seeds", "-2"}, "-seeds -2"},
		{"faultsim-negative-depth", []string{"-depth", "-1"}, "-depth -1"},
	})
	checkFlagRejections(t, "attacksim", []flagCase{
		{"attacksim-negative-slots", []string{"-figure", "8", "-slots", "-1"}, "-slots -1"},
		{"attacksim-negative-seeds", []string{"-seeds", "-3"}, "-seeds -3"},
		{"attacksim-unknown-figure", []string{"-figure", "7"}, "-figure 7"},
		{"attacksim-bad-seqlen", []string{"-victim", "load A", "-seqlen", "9"}, "-seqlen 9"},
	})
	checkFlagRejections(t, "report", []flagCase{
		{"report-negative-seeds", []string{"-only", "attacks", "-seeds", "-4"}, "-seeds -4"},
	})
	// Below one message the two-node study printed 0 rows with a NaN%
	// init share.
	checkFlagRejections(t, "clustersim", []flagCase{
		{"clustersim-zero-msgs", []string{"-msgs", "0"}, "-msgs 0"},
		{"clustersim-negative-msgs", []string{"-msgs", "-1"}, "-msgs -1"},
	})
}

// TestRetiredFlagRejection pins -steer's removal: the steered sweeps
// are gone, so dmabench, report and oslat refuse the flag as unknown,
// naming it, instead of running without it.
func TestRetiredFlagRejection(t *testing.T) {
	for _, tool := range []string{"dmabench", "report", "oslat"} {
		checkFlagRejections(t, tool, []flagCase{
			{tool + "-steer", []string{"-steer"}, "flag provided but not defined: -steer"},
		})
	}
}

// TestIgnoredFlagRejection pins flags the selected mode would ignore:
// each used to run as if it were not there, and now exits 2 before
// anything is printed.
func TestIgnoredFlagRejection(t *testing.T) {
	checkFlagRejections(t, "clustersim", []flagCase{
		{"scale-knobs-without-scale", []string{"-nodes", "4", "-shards", "2"}, "-nodes needs -scale"},
	})
	checkFlagRejections(t, "faultsim", []flagCase{
		{"replay-with-msgs", []string{"-replay", "3", "-msgs", "8"}, "-msgs cannot combine with -replay"},
	})
	checkFlagRejections(t, "attacksim", []flagCase{
		{"schedule-without-victim", []string{"-figure", "5", "-schedule", "VVV"}, "-schedule needs -victim"},
	})
	checkFlagRejections(t, "report", []flagCase{
		{"json-with-ring", []string{"-json", "-ring"}, "-json cannot combine with -ring"},
	})
	checkFlagRejections(t, "dmabench", []flagCase{
		{"negative-trace-cap", []string{"-trace-cap", "-1"}, "-trace-cap -1"},
		{"trace-cap-without-trace-out", []string{"-trace-cap", "8"}, "-trace-cap needs -trace-out"},
	})
}

// flagCase is one invalid invocation: the tool must exit 2 with want
// in its stderr diagnostic.
type flagCase struct {
	name string
	args []string
	want string // substring the stderr diagnostic must contain
}

// checkFlagRejections runs each case as a subtest against tool.
func checkFlagRejections(t *testing.T, tool string, cases []flagCase) {
	t.Helper()
	dir := buildTools(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runToolErr(t, dir, tool, tc.args...)
			if code != 2 {
				t.Fatalf("%s %v exited %d, want 2\n%s", tool, tc.args, code, stderr)
			}
			if stdout != "" {
				t.Fatalf("%s %v printed before rejecting its flags:\n%s", tool, tc.args, stdout)
			}
			if !bytes.Contains([]byte(stderr), []byte(tc.want)) {
				t.Fatalf("%s %v stderr lacks %q:\n%s", tool, tc.args, tc.want, stderr)
			}
		})
	}
}

// TestReportOnlyRejection pins report's -only validation: an unknown
// experiment name must die with exit status 2 and the list of valid
// names BEFORE any experiment runs, matching the -va and -scale
// flag-validation precedents.
func TestReportOnlyRejection(t *testing.T) {
	checkFlagRejections(t, "report", []flagCase{
		{"unknown-name", []string{"-only", "nosuch"}, `unknown experiment "nosuch"`},
		{"unknown-among-valid", []string{"-only", "table1,bogus"}, `unknown experiment "bogus"`},
		{"lists-valid-names", []string{"-only", "nope"}, "valid: atomics, attacks, breakeven"},
		{"empty-list", []string{"-only", ","}, "no experiment names"},
		{"campaign-has-no-section", []string{"-only", "campaign"}, `"campaign" has no markdown or text section`},
		{"exhaustive-has-no-section", []string{"-only", "table1,exhaustive"}, `"exhaustive" has no markdown or text section`},
		{"metrics-has-no-section", []string{"-only", "metrics"}, `"metrics" has no markdown or text section`},
		{"json-needs-json-section", []string{"-json", "-only", "table1,oslat"}, `"oslat" has no json section`},
	})
}

// TestReportOnlyEveryName runs report -only over every registered
// experiment: each either renders (exit 0, a markdown section under the
// report header) or is rejected with exit status 2 before anything is
// printed — never a half-written report and a late failure.
func TestReportOnlyEveryName(t *testing.T) {
	dir := buildTools(t)
	for _, name := range exp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, "report"), "-iters", "10", "-seeds", "2", "-only", name)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if err == nil {
				if !bytes.Contains(stdout.Bytes(), []byte("sections: "+name+".")) || !bytes.Contains(stdout.Bytes(), []byte("\n## ")) {
					t.Fatalf("report -only %s printed no section:\n%s", name, stdout.String())
				}
				return
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 || stdout.Len() > 0 {
				t.Fatalf("report -only %s: %v with %d bytes of output, want exit 0 or a clean exit 2\n%s",
					name, err, stdout.Len(), stderr.String())
			}
		})
	}
}

// TestScaleFlagRejection pins the -scale frontend's failure paths: a
// nonsense world must die with exit status 2 and a flag-level message,
// before any simulation spins up.
func TestScaleFlagRejection(t *testing.T) {
	checkFlagRejections(t, "clustersim", []flagCase{
		{"shards-above-nodes", []string{"-scale", "-nodes", "8", "-shards", "9"}, "-shards 9 exceeds -nodes 8"},
		{"zero-arrival", []string{"-scale", "-arrival", "0"}, "-arrival 0"},
		{"negative-arrival", []string{"-scale", "-arrival", "-5"}, "-arrival -5"},
		{"one-node", []string{"-scale", "-nodes", "1"}, "-nodes 1: need at least 2"},
		{"zero-shards", []string{"-scale", "-shards", "0"}, "-shards 0"},
		{"zero-tenants", []string{"-scale", "-tenants", "0"}, "-tenants 0"},
		{"zero-window", []string{"-scale", "-ms", "0"}, "-ms 0"},
		{"unknown-protocol", []string{"-scale", "-protocol", "bogus"}, `-protocol "bogus"`},
		{"protocol-without-scale", []string{"-protocol", "extshadow"}, "needs -scale"},
		{"protocol-nodes-ceiling", []string{"-scale", "-protocol", "extshadow", "-nodes", "2049"}, "at most 2048 nodes"},
		{"protocol-tiny-request", []string{"-scale", "-protocol", "kernel", "-bytes", "4"}, "8-byte RPC tag"},
		{"protocol-huge-request", []string{"-scale", "-protocol", "kernel", "-bytes", "9000"}, "landing page"},
		{"zero-inter-arrival", []string{"-scale", "-arrival", "3000000000000"}, "zero inter-arrival"},
		{"protocol-zero-inter-arrival", []string{"-scale", "-protocol", "kernel", "-arrival", "3000000000000"}, "zero inter-arrival"},
		{"window-overflow", []string{"-scale", "-ms", "9300000000"}, "-ms 9300000000"},
	})
}

// TestOSLatFlagRejection pins oslat's -iters floor: the PAL-call and
// uncached-load rows run -iters/10 iterations, so a smaller count must
// die with exit status 2 before any world is built, instead of
// printing 0ps rows and blaming the model.
func TestOSLatFlagRejection(t *testing.T) {
	checkFlagRejections(t, "oslat", []flagCase{
		{"zero-iters", []string{"-iters", "0"}, "-iters 0"},
		{"five-iters", []string{"-iters", "5"}, "-iters 5"},
		{"five-iters-json", []string{"-iters", "5", "-json"}, "-iters 5"},
	})
}
