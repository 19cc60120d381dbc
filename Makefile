GO ?= go

.PHONY: all build vet test race bench ci loc snapshots baseline baseline-fault baseline-scale baseline-ring baseline-iommu baseline-steer shardparity ringparity iommuparity steerparity schedparity golden trace-golden statslint benchdiff perfbench profile

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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

bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/sim ./internal/vm ./internal/bus ./internal/machine ./...

# The sharded engine's determinism contract, run under the race
# detector: the same world must produce an identical fingerprint and
# observation for every shard count and worker count — for the abstract
# RPC world AND the hosted-machine world (full machine.Machine per
# node, real protocol initiation, fault planes, snapshot/restore).
# `race` covers these too via ./...; the named target keeps the
# contract visible and lets CI fail fast on the one invariant the whole
# PR hangs off.
shardparity:
	$(GO) test -race -run 'TestShardEquivalence|TestShardSnapshotRestore|TestScaleShardParity|TestScaleMachineShardParity|TestScaleMachineFaultParity|TestScaleMachineSnapshotRestore' ./internal/net ./internal/exp

# The descriptor-ring contracts, run under the race detector: amortized
# initiation falls monotonically with depth (2x floor at depth 32),
# depth/churn measurements are rerun-deterministic, a mid-batch fleet
# snapshot rewinds byte-identically, the doorbell->walk->completion hot
# path stays at 0 allocs/op, and the adaptive per-shard-pair lookahead
# matches the single-shard reference at every shard x worker layout.
ringparity:
	$(GO) test -race -run 'TestRingDepthAmortizes|TestRingDepthDeterministic|TestRingChurnPolicies|TestRingSnapshotFidelity|TestRingDoorbellZeroAllocs|TestAdaptiveShardParity|TestAdaptiveUniformMatchesGlobal' ./internal/core ./internal/dma ./internal/net

# The virtual-address plane's contracts, run under the race detector:
# a world snapshotted with a transfer PARKED mid-fault rewinds and
# replays byte-identically (machine level and bare engine), Table 1's
# ordering survives IOMMU-translated initiation, the three recovery
# policies diverge under oversubscription yet replay exactly, the
# vasweep/paging grids are worker-count invariant, and the warm VA
# translate path stays at 0 allocs/op.
iommuparity:
	$(GO) test -race -run 'TestVAMidFaultSnapshotFidelity|TestVAParkedSnapshotRestore|TestVATranslateZeroAllocs|TestVATable1Ordering|TestPagingBenchPoliciesDiverge|TestVASweepParity|TestPagingParity' ./internal/core ./internal/dma ./internal/exp

# The steered loop's contracts, run under the race detector: the live
# obs feed costs 0 simulated time and 0 allocations (byte-identical
# PagingResult and world fingerprint with an observer attached), the
# trace ring serves a streaming reader a consistent prefix across
# wraparound, and the steered searches land on the exhaustive grids'
# exact answers while probing strictly fewer cells — byte-identically
# at every worker count.
steerparity:
	$(GO) test -race -run 'TestSteerBreakEvenMatchesExhaustive|TestSteerWorkerParity|TestSteerPagingDominated|TestSteerZoomDeterministic|TestSteerOSLatConverges|TestSteerDecisionTrace|TestLiveFeedZeroDelta|TestLiveFeedVeto|TestLiveWatchZeroAllocs|TestTraceReader|TestSnapshotAt|TestWatchZeroAllocs|TestReaderFromNowSkipsHistory' ./internal/exp ./internal/core ./internal/obs

# The scheduler's contracts, run under the race detector: Run, where
# the running guest makes each next-slot decision itself and re-grants
# its own slot in place, matches the one-yield-per-slot reference loop
# slot for slot under every policy (budget exhaustion included); a
# self-regrant and a warm bounce fix-up allocate nothing; WindowOf names
# the window the engine decodes; and Step and Explore, which keep one
# yield per slot, still drive exact interleavings.
schedparity:
	$(GO) test -race -run 'TestRunMatchesReferenceLoop|TestSelfRegrantZeroAllocs|TestSlotHandoffZeroAllocs|TestStepDrivesSingleSlots|TestExplore|TestVABounceFixupZeroAllocs|TestWindowOfMatchesDecode' ./internal/proc ./internal/dma

ci: build vet statslint snapshots shardparity ringparity iommuparity steerparity schedparity race perfbench benchdiff

# Regenerate the five exact snapshots into a temp dir and byte-compare
# each against the committed file, so wire-format drift in any of them
# fails ci like a golden does. BENCH_scale*.json carry Host* wall-clock
# leaves and are left out.
snapshots:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) -s --no-print-directory SNAPDIR="$$tmp/" baseline baseline-fault baseline-ring baseline-iommu baseline-steer && \
	for f in baseline fault ring iommu steer; do cmp "$$tmp/BENCH_$$f.json" "BENCH_$$f.json" || exit 1; done

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

# Regenerate the steered-sweep snapshot: per search, the probed-vs-grid
# cell counts, decision tallies and the verdicts (crossover sizes,
# surviving recovery policy, p99 knee bracket, converged iteration
# count). The probed counts are part of the contract: a steered search
# probing as many cells as its grid is a regression benchdiff will
# show.
baseline-steer:
	$(GO) run ./cmd/dmabench -json -steer > $(SNAPDIR)BENCH_steer.json

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
