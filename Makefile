GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt test race bench ci loc snapshots baseline baseline-fault baseline-scale baseline-ring baseline-iommu shardparity ringparity iommuparity schedparity golden trace-golden statslint reachlint benchdiff perfbench profile

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file in the repository, perfbench/ included, must be gofmt
# clean; the target lists the offenders and fails.
fmt:
	@out=$$($(GOFMT) -l .) && if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The simulator's concurrency contract: one goroutine per simulated
# world, parallelism only BETWEEN worlds (internal/par). The race
# detector run backs that contract — every parity test drives the
# experiment runner (internal/exp) under -race, and the root-level
# golden/smoke tests (TestGolden, TestSmoke) pin every tool's rendered
# bytes, so `ci` catches output drift as well as races.
race:
	$(GO) test -race ./...

# Deliberately regenerate testdata/golden from the current tools after
# an intentional output change. Diffs show up in review; CI fails on
# unintentional drift.
golden:
	$(GO) test -run TestGolden -update .

# Regenerate the pinned Perfetto trace_event documents (-trace-out /
# faultsim -replay). The traced scenarios are serial and simulated-
# deterministic, so these are byte-level goldens like the text ones.
trace-golden:
	$(GO) test -run TestTraceGolden -update .

# The observability plane's structural lint: metric storage must be
# obs cells (internal/obs), never an ad-hoc *Stats struct. The script
# has no allowlist: any *Stats struct outside internal/obs fails it.
statslint:
	sh scripts/statslint.sh

# Nothing only tests reach: every exported func, method, type, var and
# constant in internal/ (save the zero member of a named constant type)
# needs a user among the non-test files (cmd/, examples/, internal/, the
# root, perfbench/); a Sys* syscall number needs one outside its own
# package. The check is go/types over the source tree (reach_test.go;
# `go test ./...` runs it too). A finding is deleted with the tests
# that only it serves, or moved into its package's export_test.go or
# the one _test.go file that uses it. The in-file allowlist
# (reachAllow, at most 10 entries, each with its reason) takes only
# invariant checkers and reference models that another package's tests
# need, and hooks DESIGN's experiment tables name as evidence.
reachlint:
	$(GO) test -count=1 -run 'TestNoTestOnlyExports|TestReachFixture' .

bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/sim ./internal/vm ./internal/bus ./internal/machine ./...

# The sharded engine's determinism contract, run under the race
# detector: the same world must produce an identical fingerprint and
# observation for every shard count and worker count — for the abstract
# RPC world (uniform links and a two-rack latency matrix) AND the
# hosted-machine world (full machine.Machine per node, real protocol
# initiation). The window barrier rides along: Run
# leaves no helper goroutine behind, on a normal return and on the
# window-budget error, and a world whose windows outlast the spin
# budget — so a helper or the coordinator parks and is woken — keeps
# the 1-worker fingerprint.
# `race` covers these too via ./...; the named target keeps the
# contract visible and lets CI fail fast on the one invariant the whole
# PR hangs off.
shardparity:
	$(GO) test -race -run 'TestShardEquivalence|TestShardRunBarrier|TestRackShardParity|TestScaleShardParity|TestScaleMachineShardParity' ./internal/net ./internal/exp

# The descriptor-ring contracts, run under the race detector: amortized
# initiation falls monotonically with depth (2x floor at depth 32),
# depth/churn measurements are rerun-deterministic, a mid-batch fleet
# snapshot rewinds byte-identically, the doorbell->walk->completion
# hot path stays at 0 allocs/op, and a zero-size descriptor completes
# exactly once, with or without an IOMMU attached. The pooled
# Transfer records' contracts ride along: a record displaced before its
# delivery lands stays out of the pool, two clones of one snapshot each
# match a fresh world, and a warm initiation allocates nothing. The
# hosted path rides along too: DirectDMA makes the same attempts and
# returns the same status and error as DMA for every method, and its
# warm initiations allocate nothing either.
ringparity:
	$(GO) test -race -run 'TestRingDepthAmortizes|TestRingDepthDeterministic|TestRingChurnPolicies|TestRingSnapshotFidelity|TestRingDoorbellZeroAllocs|TestRingZeroSizeCompletesOnce|TestPoolHoldsRecordsUntilDelivered|TestSnapshotClonesDoNotShareRecords|TestInitiationZeroAllocs|TestDirectMatchesScheduled|TestBackToBackAllocsTrackBacklog' ./internal/core ./internal/dma

# The virtual-address plane's contracts, run under the race detector:
# a world snapshotted with a transfer PARKED mid-fault rewinds and
# replays byte-identically (machine level and engine level), Table 1's
# ordering survives IOMMU-translated initiation, the three recovery
# policies diverge under oversubscription yet replay exactly, the
# vasweep/paging grids are worker-count invariant, the warm VA
# translate path stays at 0 allocs/op, and the completion-poll skip
# leaves PagingBench and MeasureIOTLB results, the registry, the clock
# and the TLB stamps exactly as the full poll loop does — also when
# maxPolls or the slot budget runs out mid-wait — within a bound on
# real polls per transfer, refuses beside a second live process, on a
# syscall poll and on a poll that fills the CPU TLB, and allocates
# nothing in a warm Wait. The TLB's mutation version moves on every
# fill, flush and restore and never on a hit, and the pager's LRU list
# evicts the victim a scan of every page would, across a mid-stream
# restore too. A world configured like PagingBench snapshots, and its
# clone and rewound origin replay a faulting stream byte-identically.
# The engine's memory-to-memory copy (phys Move) ends exactly where a
# buffered read and write would, the registry's extrapolation moves
# gauges down as well as up and writes no cell that did not move, and
# the scale worlds reject an inter-arrival their jitter rounds to zero.
# The poll's held state is counters: the engine's decode version moves
# whenever its decode state does (and not on a status read), and the
# TLB's packed-key scan and one-entry Skip match a linear-scan
# reference TLB step for step. TranslateIO, which reads the device page
# table only on an IOTLB miss, matches a lookup-then-translate
# reference; the bus's last-range decode hint matches a binary search
# over its windows; and physical memory's line-granular copy on write
# keeps two clones of one snapshot, writing one page concurrently, out
# of each other's bytes and the snapshot's, copying at most a page
# header and one line per first write.
iommuparity:
	$(GO) test -race -run 'TestVAMidFaultSnapshotFidelity|TestVAParkedSnapshotRestore|TestVATranslateZeroAllocs|TestVATable1Ordering|TestPagingBenchPoliciesDiverge|TestVASweepParity|TestPagingParity|TestPollSkipEquivalence|TestPollSkipMaxPollsParity|TestPollSkipSlotBudgetParity|TestPollSkipRefusesLivePeer|TestPollSkipRefusesTrappingPoll|TestPollSkipRefusesTLBFill|TestPollSkipZeroAllocs|TestPagingWorldSnapshotReplays|TestTLBVersion|TestPagerEvictionOrder|TestMoveMatchesReadWrite|TestRegistryExtrapolateGauge|TestScaleValidation|TestDecodeVersionCoversHash|TestTLBMatchesReference|TestTranslateIOMatchesTwoStep|TestDeviceAtMatchesSearch|TestSnapshotLinesIsolated|TestSharedPageWriteAllocs' ./internal/core ./internal/dma ./internal/exp ./internal/vm ./internal/kernel ./internal/phys ./internal/obs ./internal/iommu ./internal/bus

# The scheduler's contracts, run under the race detector: Run, where
# the running guest makes each next-slot decision itself and re-grants
# its own slot in place, matches the one-yield-per-slot reference loop
# slot for slot under every policy (budget exhaustion included, and a
# round-robin guest blocked by an interrupt or out of budget in the
# middle of its quantum, the two ends of the in-place keep); a
# self-regrant and a warm bounce fix-up allocate nothing; WindowOf names
# the window the engine decodes; and Step and Explore, which keep one
# yield per slot, still drive exact interleavings.
schedparity:
	$(GO) test -race -run 'TestRunMatchesReferenceLoop|TestSelfRegrantZeroAllocs|TestSlotHandoffZeroAllocs|TestStepDrivesSingleSlots|TestExplore|TestVABounceFixupZeroAllocs|TestWindowOfMatchesDecode' ./internal/proc ./internal/dma

ci: build vet fmt statslint reachlint snapshots shardparity ringparity iommuparity schedparity race perfbench benchdiff

# Regenerate the four exact snapshots into a temp dir and byte-compare
# each against the committed file, so wire-format drift in any of them
# fails ci like a golden does. BENCH_scale*.json carry Host* wall-clock
# leaves and are left out.
snapshots:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) -s --no-print-directory SNAPDIR="$$tmp/" baseline baseline-fault baseline-ring baseline-iommu && \
	for f in baseline fault ring iommu; do cmp "$$tmp/BENCH_$$f.json" "BENCH_$$f.json" || exit 1; done

# Regenerate the perf-trajectory snapshot (raw simulated picoseconds;
# byte-identical for any -procs value).
baseline:
	$(GO) run ./cmd/dmabench -json -sweep -breakeven -trend -comparators -metrics > $(SNAPDIR)BENCH_baseline.json

# Regenerate the fault-injection snapshot (faultsweep goodput/latency
# grid, link-down recovery, model-checked delivery search) in raw
# simulated picoseconds. Compare historical snapshots with
# `go run ./cmd/benchdiff old.json new.json` — rows that exist on only
# one side are reported as added/removed, never as failures.
baseline-fault:
	$(GO) run ./cmd/faultsim -json > $(SNAPDIR)BENCH_fault.json

# Regenerate the scale snapshot: the 1000-node NOW (>= 10^6 link
# deliveries) timed at shards {1,4,8}, then the hosted-machine world —
# full machines, per-protocol ladder — at a size the machine path
# sustains. The Scale/ScaleMachine sections are exact simulated time;
# the Bench sections' Host* leaves (wall ns, host events/sec, core
# count) measure THIS machine and are the one deliberately
# non-reproducible part of any snapshot — cmd/benchdiff prints them
# informationally and never flags them.
baseline-scale:
	$(GO) run ./cmd/clustersim -scale -bench -json -nodes 1000 -arrival 55000 -ms 10 > BENCH_scale.json
	$(GO) run ./cmd/clustersim -scale -bench -json -protocol all -nodes 256 -arrival 5000 -ms 2 > BENCH_scalemachine.json

# Regenerate the descriptor-ring snapshot: the ringdepth sweep (per-
# transfer initiation cost and goodput per protocol at depths 1..64,
# against the unbatched baseline) and the ringchurn oversubscription
# grid (contexts x processes x arbitration policy). Exact simulated
# time; cmd/benchdiff treats first-appearance leaves as added.
baseline-ring:
	$(GO) run ./cmd/dmabench -json -ring -ringchurn > $(SNAPDIR)BENCH_ring.json

# Regenerate the virtual-address DMA snapshot: Table 1 measured through
# the IOMMU against the physical shadow window, the IOTLB hit-rate
# sweep, and the paging recovery-policy grid. Exact simulated time plus
# hex world fingerprints; cmd/benchdiff treats first-appearance leaves
# as added, never as failures.
baseline-iommu:
	$(GO) run ./cmd/dmabench -json -va -paging > $(SNAPDIR)BENCH_iommu.json

# Build and test the repository benchmark (perfbench/, its own module
# reaching the simulator through `replace uldma => ../`). Nothing else
# in ci builds that module, so a change the benchmark cannot build
# against — a go.mod language bump its own go.mod does not match, a
# renamed entry point — would otherwise pass unnoticed.
perfbench:
	cd perfbench && $(GO) test ./...

# Compare the current model's simulated-time numbers against the
# committed baseline snapshot. Every value is exact simulated time, so
# any delta is a behavioural change. Non-fatal in ci by design: the
# report shows up in the log, and intentional model changes land with a
# `make baseline` refresh in the same commit.
benchdiff:
	-$(GO) run ./cmd/benchdiff

# Non-blank, non-comment Go line counts: non-test code outside
# perfbench/, test code, and the tool frontends (cmd/ + internal/exp).
# Informational, not part of ci.
loc:
	@sh scripts/loc.sh

# Host-CPU and allocation profiles of the heaviest tool. Every cmd/
# tool takes the same -cpuprofile/-memprofile flags (see
# internal/exp/profile.go); inspect with `go tool pprof`.
profile:
	$(GO) run ./cmd/report -procs 1 -cpuprofile report.cpu.prof -memprofile report.mem.prof > /dev/null
	@echo "wrote report.cpu.prof and report.mem.prof; try: go tool pprof -top report.cpu.prof"
