package exp

// The flag tables of the seven cmd/ tools, which Bind (flags.go) checks
// a command line against: one row per flag. The tables are static data;
// they do no work at package init.

// countNoMax is the NoMax reason of a count of worlds, messages or
// initiations, which sets how long a run takes.
const countNoMax = "a count: a larger one runs longer"

// The flags several tools share, declared once.
var (
	itersFlag      = Flag{Name: "iters", Kind: IntFlag, Def: 1000, Min: 1, NoMax: countNoMax, Usage: "initiations per timing measurement (paper: 1000)"}
	procsFlag      = Flag{Name: "procs", Kind: IntFlag, Min: 0, NoMax: "the pool starts no more workers than there are worlds (shards, under clustersim -scale)", Usage: "worker goroutines for independent worlds; with clustersim -scale, the shard workers of one world (0 = GOMAXPROCS)"}
	jsonFlag       = Flag{Name: "json", Kind: BoolFlag, Usage: "emit results as one JSON document (raw simulated picoseconds)"}
	listFlag       = Flag{Name: "list", Kind: BoolFlag, Usage: "list the registered experiments and exit"}
	cpuProfileFlag = Flag{Name: "cpuprofile", Kind: StringFlag, Usage: "write a CPU profile to this file"}
	memProfileFlag = Flag{Name: "memprofile", Kind: StringFlag, Usage: "write a heap profile to this file on exit"}
	traceOutFlag   = Flag{Name: "trace-out", Kind: StringFlag, Usage: `write a Perfetto trace_event JSON document of a traced scenario to this file ("-" = stdout)`}
	traceCapFlag   = Flag{Name: "trace-cap", Kind: IntFlag, Def: defaultTraceCap, Min: 1, NoMax: "the ring grows only as a scenario emits events", Requires: []string{"trace-out"}, Usage: "trace ring capacity (events) for -trace-out scenarios"}
)

// Tools holds every cmd/ tool's flag table.
var Tools = []Tool{
	{Name: "dmabench", Flags: []*Flag{
		&itersFlag,
		{Name: "sweep", Kind: BoolFlag, Usage: "also run the bus-frequency sweep (X4)"},
		{Name: "contention", Kind: BoolFlag, Usage: "also run the register-context contention study"},
		{Name: "comparators", Kind: BoolFlag, Usage: "also measure the comparator methods (SHRIMP, FLASH, PAL)"},
		{Name: "breakeven", Kind: BoolFlag, Usage: "also run the initiation-vs-transfer break-even sweep (X6)"},
		{Name: "ring", Kind: BoolFlag, Usage: "also run the descriptor-ring depth sweep (batched initiation)"},
		{Name: "ringchurn", Kind: BoolFlag, Usage: "also run the register-context churn study (ring processes vs contexts)"},
		{Name: "va", Kind: BoolFlag, Usage: "also run the virtual-address sweep (Table 1 through the IOMMU + IOTLB hit rate)"},
		{Name: "paging", Kind: BoolFlag, Usage: "also run the device-paging study (recovery policies under oversubscription)"},
		{Name: "tlb", Kind: IntFlag, Min: 0, NoMax: "past the sweep's largest working set (32 pages) every size reads the same", Requires: []string{"va"}, Usage: "with -va: IOTLB entries for the hit-rate sweep (0 = 8)"},
		{Name: "trace", Kind: BoolFlag, Excludes: []string{"json"}, Usage: "show the bus transactions of one initiation per method (text only)"},
		{Name: "trend", Kind: BoolFlag, Usage: "also run the hardware-generation trend sweep (X7)"},
		{Name: "metrics", Kind: BoolFlag, Requires: []string{"json"}, Usage: "with -json: append the per-method observability registry snapshot (exact event counts)"},
		&procsFlag, &jsonFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "report", Flags: []*Flag{
		&itersFlag,
		{Name: "seeds", Kind: IntFlag, Def: 40, Min: 0, NoMax: countNoMax, Excludes: []string{"json"}, Usage: "random adversarial campaigns (markdown sections only)"},
		{Name: "ring", Kind: BoolFlag, Excludes: []string{"json", "only"}, Usage: "also include the descriptor-ring sections (depth sweep + context churn)"},
		{Name: "va", Kind: BoolFlag, Excludes: []string{"json", "only"}, Usage: "also include the virtual-address DMA sections (vasweep + paging)"},
		{Name: "only", Kind: StringFlag, Usage: "render only these registry experiments (comma-separated names; unknown names exit 2)"},
		&procsFlag, &jsonFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "oslat", Flags: []*Flag{
		{Name: "iters", Kind: IntFlag, Def: 10_000, Min: 10, NoMax: countNoMax, Why: "the PAL-call and uncached-load rows run -iters/10 times", Usage: "iterations per microbenchmark"},
		&procsFlag, &jsonFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "clustersim", Flags: []*Flag{
		{Name: "msgs", Kind: IntFlag, Def: 50, Min: 1, NoMax: countNoMax, Usage: "messages per method"},
		{Name: "size", Kind: UintFlag, Def: 256, Min: 0, Max: clusterFlagSlot, Why: "the payload must end below the doorbell flag word at byte 8160 of the 8 KiB mailbox page", Usage: "message payload bytes"},
		{Name: "gigabit", Kind: BoolFlag, Def: 1, Usage: "use the Gigabit link preset (else ATM-155)"},
		{Name: "hist", Kind: BoolFlag, Excludes: []string{"json"}, Usage: "print per-method latency histograms (text only)"},
		{Name: "scale", Kind: BoolFlag, Excludes: []string{"msgs", "size", "gigabit", "hist"}, Usage: "run the sharded NOW scale experiment instead of the two-node comparison"},
		{Name: "nodes", Kind: IntFlag, Def: scaleNodes, Min: scaleMinNodes, NoMax: "the flat world has no address window; ValidScale caps the machine world's", Requires: []string{"scale"}, Usage: "scale: cluster size"},
		{Name: "shards", Kind: IntFlag, Def: scaleShards, Min: 1, NoMax: "at most -nodes, which ValidScale checks", Requires: []string{"scale"}, Usage: "scale: shard count (1..nodes)"},
		{Name: "arrival", Kind: IntFlag, Def: scaleArrival, Min: 1, NoMax: "bounded with -tenants (a zero inter-arrival), which ValidScale checks", Requires: []string{"scale"}, Usage: "scale: per-node RPC arrival rate, RPCs/s"},
		{Name: "tenants", Kind: IntFlag, Def: scaleTenants, Min: 1, Max: scaleMaxPerSecond, Why: "the inter-arrival arithmetic multiplies it by a second of picoseconds", Requires: []string{"scale"}, Usage: "scale: arrival streams per node"},
		{Name: "bytes", Kind: UintFlag, Def: scaleBytes, Min: 1, Max: scaleMaxPerSecond, Why: "the wire-time arithmetic multiplies it by a second of picoseconds", Requires: []string{"scale"}, Usage: "scale: request payload bytes"},
		{Name: "ms", Kind: IntFlag, Def: scaleMs, Min: 1, Max: scaleMaxMs, Why: "the arrival window must fit the picosecond clock", Requires: []string{"scale"}, Usage: "scale: arrival-window length, simulated milliseconds"},
		{Name: "seed", Kind: UintFlag, Def: scaleSeed, Min: 1, NoMax: "any nonzero 64-bit value seeds the world", Requires: []string{"scale"}, Usage: "scale: world seed"},
		{Name: "bench", Kind: BoolFlag, Requires: []string{"scale"}, Usage: "scale: time the world at shards {1,4,8} and report host events/sec (JSON)"},
		{Name: "protocol", Kind: StringFlag, Enum: []string{"kernel", "extshadow", "keybased", "repeated", "all"}, Requires: []string{"scale"}, Usage: "scale: run FULL machines with this initiation protocol"},
		&procsFlag, &jsonFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "faultsim", Flags: []*Flag{
		{Name: "msgs", Kind: IntFlag, Def: FaultMsgs, Min: 1, NoMax: countNoMax, Usage: "messages per faultsweep cell"},
		{Name: "seeds", Kind: IntFlag, Def: FaultSeeds, Min: 0, NoMax: countNoMax, Usage: "faultsearch: seeded fault plans to model-check (0 = 4)"},
		{Name: "depth", Kind: IntFlag, Def: FaultDepth, Min: 0, NoMax: "a seed whose search outgrows its 10,000-schedule budget fails", Usage: "faultsearch: explicit scheduling decisions per schedule (0 = 4)"},
		{Name: "replay", Kind: UintFlag, Min: 0, NoMax: "any seed replays", Excludes: []string{"msgs", "seeds", "depth", "json"}, Usage: "rebuild the faultsearch world for this seed and write its cluster-wide Perfetto trace to -trace-out (stdout when unset)"},
		&procsFlag, &jsonFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "attacksim", Flags: []*Flag{
		{Name: "figure", Kind: IntFlag, Enum: []string{"0", "5", "6", "8"}, Usage: "which figure to replay (5, 6 or 8; 0 = all)"},
		{Name: "slots", Kind: IntFlag, Def: 4, Min: 0, Max: 16, Why: "the search builds all C(7+slots, 7) schedules before any runs: 245,157 at 16", Usage: "attacker slots for the exhaustive search"},
		{Name: "seeds", Kind: IntFlag, Def: 25, Min: 0, NoMax: countNoMax, Usage: "random adversarial campaigns for figure 8"},
		{Name: "victim", Kind: StringFlag, Excludes: []string{"figure", "slots", "seeds"}, Usage: "custom victim sequence (assembler syntax; symbols A B C FOO)"},
		{Name: "attacker", Kind: StringFlag, Requires: []string{"victim"}, Usage: "custom attacker sequence"},
		{Name: "schedule", Kind: StringFlag, Requires: []string{"victim"}, Usage: "custom slot schedule, e.g. VAAAVVAV"},
		{Name: "seqlen", Kind: IntFlag, Def: 5, Min: 3, Max: 5, Requires: []string{"victim"}, Usage: "engine sequence length for -victim mode"},
		{Name: "share-a", Kind: BoolFlag, Requires: []string{"victim"}, Usage: "give the attacker read access to page A"},
		&procsFlag, &listFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
	{Name: "benchdiff", Flags: []*Flag{
		&itersFlag,
		{Name: "tol", Kind: FloatFlag, Min: 0, NoMax: "any percentage filters the listing", Usage: "percent delta beyond which a leaf is flagged"},
		{Name: "fatal", Kind: BoolFlag, Usage: "exit 1 when any leaf is flagged"},
		{Name: "fatal-threshold", Kind: FloatFlag, Def: -1, Min: -1, NoMax: "any percentage gates the run", Usage: "exit 1 when any model leaf moves by at least this percent (Host* leaves stay exempt; -1 = off)"},
		&procsFlag, &cpuProfileFlag, &memProfileFlag, &traceOutFlag, &traceCapFlag,
	}},
}
