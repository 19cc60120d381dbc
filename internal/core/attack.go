package userdma

import (
	"fmt"
	"strings"
	"sync"

	"uldma/internal/dma"
	"uldma/internal/isa"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// The attack studies reproduce the paper's adversarial interleavings
// (Figures 5, 6 and 8) as full-system scenarios: a victim process
// performing a legitimate DMA A→B and a malicious process interleaving
// its own — individually legal — shadow accesses under a scripted
// scheduler.
//
// Fixed scenario layout: the victim owns pages A (source) and B
// (private destination); the attacker owns pages C and FOO. In the
// Figure 6 scenario the attacker is additionally given READ access to A
// ("the data contained in vsource ... can be read by any process").

// Scenario virtual addresses (same in both processes for readability).
const (
	vaA   = vm.VAddr(0x10000)
	vaB   = vm.VAddr(0x20000)
	vaC   = vm.VAddr(0x30000)
	vaFoo = vm.VAddr(0x40000)
)

// Scenario byte patterns.
const (
	fillA = 0x11 // victim's data
	fillC = 0x66 // attacker's data
)

// AttackOutcome is the ground truth of one adversarial run.
type AttackOutcome struct {
	// VictimStatus is the status word the victim's protocol reported.
	VictimStatus uint64
	// VictimBelievesSuccess is the victim's conclusion.
	VictimBelievesSuccess bool
	// AttackerStatus is the attacker program's last load: in the
	// Figure 6 scenario, what its completing access returned (0 for the
	// random attacker).
	AttackerStatus uint64

	// Transfers is (src, dst, size) for every transfer the engine
	// actually started, resolved to scenario page names.
	Transfers []string

	// Hijacked: a transfer wrote into the victim's private page B from
	// a source other than A — memory corruption (Figure 5's outcome).
	Hijacked bool
	// Misinformed: a transfer A→B started but the victim was told
	// failure, or no transfer started and the victim was told success
	// (Figure 6's outcome).
	Misinformed bool

	// VictimErr is the victim's exit error (e.g. retries exhausted).
	VictimErr error
}

// String renders a one-glance summary.
func (o AttackOutcome) String() string {
	return fmt.Sprintf("transfers=%v victimSuccess=%v hijacked=%v misinformed=%v",
		o.Transfers, o.VictimBelievesSuccess, o.Hijacked, o.Misinformed)
}

// attackTemplate is a warmed scenario world: the machine, both address
// spaces fully mapped (data pages, shadow aliases, the optional shared
// A), data patterns filled, and a pristine world snapshot taken before
// any process ever ran. Each run checks a template out of the pool,
// spawns fresh victim/attacker processes into the pre-built spaces,
// runs its schedule, and returns the template rewound to the snapshot.
// World construction — machine build, four page allocations, shadow
// maps, fills, roughly two thirds of a schedule's host cost in the
// exhaustive search — thus happens once per pooled template instead of
// once per schedule (the search tries ~1300 of them per report run).
type attackTemplate struct {
	key          scenarioKey
	m            *machine.Machine
	snap         *machine.Snapshot
	vicAS, attAS *vm.AddressSpace
	frames       map[string]phys.Addr
	// accepted collects, through the engine's accept hook, every
	// transfer the current run started, in start order.
	accepted []dma.Transfer
}

// scenarioKey identifies a template family: two worlds are
// interchangeable iff they share the engine sequence length and the
// shareA mapping.
type scenarioKey struct {
	seqLen int
	shareA bool
}

// attackPools holds one free list per scenario shape. sync.Pool keeps
// checkout allocation-free and parallel-safe (exhaustive-search workers
// end up each cycling their own template). Outcomes cannot depend on
// which template a run draws: Restore rewinds every world component to
// the same pristine snapshot (TestAttackTemplateRestoreFidelity pins
// this — a reused world must reproduce a fresh world's outcome
// byte for byte).
var attackPools sync.Map // scenarioKey -> *sync.Pool

// checkoutTemplate draws a pristine template for the scenario shape,
// building one if the pool is empty.
func checkoutTemplate(seqLen int, shareA bool) (*attackTemplate, error) {
	pi, _ := attackPools.LoadOrStore(scenarioKey{seqLen, shareA}, &sync.Pool{})
	if t, _ := pi.(*sync.Pool).Get().(*attackTemplate); t != nil {
		return t, nil
	}
	return newAttackTemplate(seqLen, shareA)
}

// newAttackTemplate builds and snapshots one warmed scenario world:
// the victim's space before the attacker's, frames A, B, C, FOO, so
// ASIDs, frame addresses and shadow encodings are fixed.
func newAttackTemplate(seqLen int, shareA bool) (*attackTemplate, error) {
	m, err := machine.New(machine.Alpha3000TC(dma.ModeRepeated, seqLen))
	if err != nil {
		return nil, err
	}
	t := &attackTemplate{
		key:    scenarioKey{seqLen, shareA},
		m:      m,
		vicAS:  m.Kernel.NewAddressSpace(),
		attAS:  m.Kernel.NewAddressSpace(),
		frames: map[string]phys.Addr{},
	}
	m.Engine.SetAcceptHook(func(tr dma.Transfer) { t.accepted = append(t.accepted, tr) })
	alloc := func(as *vm.AddressSpace, name string, va vm.VAddr) error {
		frame, err := m.Kernel.AllocPage(as, va, vm.Read|vm.Write)
		if err != nil {
			return err
		}
		t.frames[name] = frame
		return m.Kernel.MapShadowAS(as, 0, va)
	}
	if err := alloc(t.vicAS, "A", vaA); err != nil {
		return nil, err
	}
	if err := alloc(t.vicAS, "B", vaB); err != nil {
		return nil, err
	}
	if err := alloc(t.attAS, "C", vaC); err != nil {
		return nil, err
	}
	if err := alloc(t.attAS, "FOO", vaFoo); err != nil {
		return nil, err
	}
	if shareA {
		// Public read-only data: same frame, read right, own shadow.
		if err := m.Kernel.MapFrame(t.attAS, vaA, t.frames["A"], vm.Read); err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadowAS(t.attAS, 0, vaA); err != nil {
			return nil, err
		}
	}
	m.Mem.Fill(t.frames["A"], 256, fillA)
	m.Mem.Fill(t.frames["C"], 256, fillC)
	if t.snap, err = m.Snapshot(); err != nil {
		return nil, err
	}
	return t, nil
}

// guest is one side of a duel: it runs in its own process and returns
// the status word it ended on.
type guest func(c *proc.Context) (uint64, error)

// program runs a straight-line guest program; its status is the value
// of its last load (DMA_FAILURE if it has none).
func program(p isa.Program) guest {
	return func(c *proc.Context) (uint64, error) {
		last, ok, err := isa.RunLast(c, p)
		if !ok {
			return dma.StatusFailure, err
		}
		return last, err
	}
}

// client is a victim running the Figure 7 library loop: the 5-access
// sequence A->B, retried as r says.
func client(r RepeatedPassing) guest {
	h := r.handle(nil)
	return func(c *proc.Context) (uint64, error) {
		// A guest's own scratch: the exhaustive search runs one client
		// in many worlds at once.
		var s scratch
		return h.initiate(c, &s, vaA, vaB, duelSize)
	}
}

// randomAttacker issues 40 seeded-random accesses, each individually
// legal: stores and loads on its own pages C and FOO and, with shareA,
// loads of the public page A.
func randomAttacker(seed uint64, shareA bool) guest {
	return func(c *proc.Context) (uint64, error) {
		rng := sim.NewRand(seed ^ 0xa77ac)
		targets := []vm.VAddr{shadow(vaC), shadow(vaFoo)}
		if shareA {
			targets = append(targets, shadow(vaA))
		}
		for i := 0; i < 40; i++ {
			t := targets[rng.Intn(len(targets))]
			switch rng.Intn(3) {
			case 0:
				if t != shadow(vaA) { // the attacker cannot store to A
					c.Store(t, phys.Size64, uint64(rng.Intn(256)+1))
					c.MB()
				}
			case 1:
				c.Load(t, phys.Size64)
			default:
				c.Spin(50)
			}
		}
		return 0, nil
	}
}

// duelSize is the victim's transfer size in every scenario.
const duelSize = 64

// duelSlots bounds a duel's scheduler slots; every scenario finishes
// far below it.
const duelSlots = 1_000_000

// duel is one run of the standard scenario: a victim and an attacker
// guest on a pristine template world.
type duel struct {
	seqLen           int // engine sequence length: 3, 4 or 5
	shareA           bool
	victim, attacker guest
	// schedule scripts the slots, 'V' or 'A' each (spaces and commas
	// separate); slots past its end go to the first runnable guest.
	// With random set, a policy seeded with seed picks every slot.
	schedule string
	random   bool
	seed     uint64
}

// run checks a template out of the pool, spawns both guests, runs them
// under the duel's policy, settles in-flight DMA and returns the
// outcome with the template rewound into the pool.
func (d duel) run() (AttackOutcome, error) {
	if d.seqLen < 3 || d.seqLen > 5 {
		return AttackOutcome{}, fmt.Errorf("userdma: engine sequence length %d (want 3, 4 or 5)", d.seqLen)
	}
	var script []bool // true = victim slot
	for _, r := range d.schedule {
		switch r {
		case 'V', 'v':
			script = append(script, true)
		case 'A', 'a':
			script = append(script, false)
		case ' ', ',':
		default:
			return AttackOutcome{}, fmt.Errorf("userdma: schedule char %q (want V or A)", r)
		}
	}
	t, err := checkoutTemplate(d.seqLen, d.shareA)
	if err != nil {
		return AttackOutcome{}, err
	}
	var victimStatus, attackerStatus uint64
	spawn := func(name string, as *vm.AddressSpace, g guest, status *uint64) *proc.Process {
		return t.m.Runner.Spawn(name, as, func(c *proc.Context) error {
			st, err := g(c)
			*status = st
			return err
		})
	}
	victim := spawn("victim", t.vicAS, d.victim, &victimStatus)
	attacker := spawn("attacker", t.attAS, d.attacker, &attackerStatus)
	var policy proc.Policy = proc.NewRandom(d.seed)
	if !d.random {
		order := make([]proc.PID, len(script))
		for i, v := range script {
			order[i] = attacker.PID()
			if v {
				order[i] = victim.PID()
			}
		}
		policy = proc.NewScripted(order...)
	}
	if err := t.m.Run(policy, duelSlots); err != nil {
		return AttackOutcome{}, err
	}
	t.m.Settle()
	o := t.outcome(victimStatus, attackerStatus, victim.Err())
	t.release()
	return o, nil
}

// release rewinds the template to its pristine snapshot and returns it
// to the pool. If the rewind fails (it cannot, short of a bug: the run
// has completed, so the world is quiescent), the template is dropped
// and the next run builds a fresh one.
func (t *attackTemplate) release() {
	t.accepted = t.accepted[:0]
	if err := t.m.Restore(t.snap); err == nil {
		if pi, ok := attackPools.Load(t.key); ok {
			pi.(*sync.Pool).Put(t)
		}
	}
}

// frameName resolves a physical address to the scenario page holding it.
func (t *attackTemplate) frameName(pa phys.Addr) string {
	ps := phys.Addr(t.m.Cfg.PageSize)
	for name, f := range t.frames {
		if pa >= f && pa < f+ps {
			return name
		}
	}
	return pa.String()
}

// outcome inspects the transfers the run started.
func (t *attackTemplate) outcome(victimStatus, attackerStatus uint64, victimErr error) AttackOutcome {
	o := AttackOutcome{
		VictimStatus:          victimStatus,
		VictimBelievesSuccess: victimStatus != dma.StatusFailure,
		AttackerStatus:        attackerStatus,
		VictimErr:             victimErr,
	}
	sawAtoB := false
	for _, tr := range t.accepted {
		src, dst := t.frameName(tr.Src), t.frameName(tr.Dst)
		o.Transfers = append(o.Transfers, fmt.Sprintf("%s->%s[%d]", src, dst, tr.Size))
		if dst == "B" && src != "A" {
			o.Hijacked = true
		}
		if dst == "B" && src == "A" {
			sawAtoB = true
		}
	}
	if o.VictimBelievesSuccess != sawAtoB {
		o.Misinformed = true
	}
	return o
}

// ScenarioSymbols returns the assembler symbol table of the standard
// attack scenario: A, B (victim pages, B private), C, FOO (attacker
// pages), each resolving to its shadow virtual address.
func ScenarioSymbols() map[string]vm.VAddr {
	return map[string]vm.VAddr{
		"A":   shadow(vaA),
		"B":   shadow(vaB),
		"C":   shadow(vaC),
		"FOO": shadow(vaFoo),
	}
}

// scenarioProgram assembles one of the fixed scenario programs below.
func scenarioProgram(src string) guest {
	p, err := isa.Assemble(src, ScenarioSymbols())
	if err != nil {
		panic(err)
	}
	return program(p)
}

// The fixed guest programs, in attacksim's -victim/-attacker syntax.
// Every attacker access is individually legal: it touches only its own
// pages C and FOO, or reads the public page A when shared.
var (
	// Dubnicki's 3-access protocol, one attempt: status1, size, status2.
	figure5Victim   = scenarioProgram("load A; store B 64; mb; load A")
	figure5Attacker = scenarioProgram("store FOO 1; mb; load FOO; load C; load C")
	// The 4-access protocol: STORE, LOAD, STORE, [attacker], LOAD.
	figure6Victim   = scenarioProgram("store B 64; mb; load A; store B 64; mb; load A")
	figure6Attacker = scenarioProgram("load A")
	// Figure 5's attacker, repeated to keep interfering across retries.
	figure8Attacker = scenarioProgram(strings.Repeat("store FOO 1; mb; load FOO; load C; load C;", 4))
	// The exhaustive search's fixed adversary.
	searchAttacker = scenarioProgram("store FOO 32; mb; load FOO; load C; load C; store C 32; mb; load FOO")
)

// Figure5 replays the paper's Figure 5 against the 3-access variant:
// the malicious process transfers its own data (C) into the victim's
// private page (B), and the victim is told its own DMA succeeded.
func Figure5() (AttackOutcome, error) {
	// Figure 5's interleaving, slot by slot:
	//   V: LOAD shadow(A)            1
	//   A: STORE shadow(FOO), MB     2-3
	//   A: LOAD shadow(FOO)          4   <- no DMA (A != FOO)
	//   A: LOAD shadow(C)            5
	//   V: STORE shadow(B), MB       6-7
	//   A: LOAD shadow(C)            8   <- DMA C->B starts!
	//   V: LOAD shadow(A)            9   <- too late to do anything
	return duel{seqLen: 3, victim: figure5Victim, attacker: figure5Attacker, schedule: "VAAAAVVAV"}.run()
}

// Figure6 replays the paper's Figure 6 against the 4-access variant:
// the attacker (read access to the public page A) completes the
// victim's sequence, so the DMA starts for the attacker while the
// victim is told it failed.
func Figure6() (AttackOutcome, error) {
	// Victim slots 1-5 (S, MB, L, S, MB), the attacker's completing
	// LOAD, then the victim's final LOAD.
	return duel{seqLen: 4, shareA: true, victim: figure6Victim, attacker: figure6Attacker, schedule: "VVVVVAV"}.run()
}

// Figure8Replay runs the Figure 5 attack schedule against the paper's
// safe 5-access sequence: the attack must not start any transfer into
// B, and the victim (which retries per Figure 7) must end with an
// honest answer.
func Figure8Replay() (AttackOutcome, error) {
	// Same adversarial flavour as Figure 5, then free-run to let the
	// victim's retries finish.
	victim := client(RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 16})
	return duel{seqLen: 5, victim: victim, attacker: figure8Attacker, schedule: "VAAAAVVAVAVAV"}.run()
}

// RandomAdversarialRun drives a victim (5-access protocol with retries)
// against an attacker issuing a seeded-random stream of legal shadow
// accesses, under a seeded-random scheduler. looseStatus selects the
// paper's literal Figure 7 client (checks DMA_FAILURE only) instead of
// the strict one that also retries on ACCEPTED. It returns the outcome;
// the property test asserts that no run is ever Hijacked.
func RandomAdversarialRun(seed uint64, shareA, looseStatus bool) (AttackOutcome, error) {
	victim := client(RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 32, LooseStatus: looseStatus})
	return duel{seqLen: 5, shareA: shareA, victim: victim, attacker: randomAttacker(seed, shareA), random: true, seed: seed}.run()
}

// VictimSlots is the victim's slot count in the exhaustive search: its
// barriered 5-access attempt occupies S MB L S MB L L = 7 scheduler
// slots.
const VictimSlots = 7

// searchVictim is the exhaustive search's victim: ONE barriered
// 5-access attempt, its status taken as read.
var searchVictim = client(RepeatedPassing{Len: 5, Barriers: true, MaxRetries: 1, LooseStatus: true})

// RunInterleaving runs ONE schedule of the exhaustive search — one
// cell of the "exhaustive" experiment — on a fresh world: the victim's
// barriered 5-access attempt against the fixed adversarial program,
// interleaved as the V/A schedule dictates. internal/exp's parallel
// search runs it per schedule.
func RunInterleaving(schedule string) (AttackOutcome, error) {
	return duel{seqLen: 5, victim: searchVictim, attacker: searchAttacker, schedule: schedule}.run()
}

// CustomDuel runs researcher-scripted victim and attacker programs in
// the standard attack scenario under an explicit slot schedule
// ('V'/'A' per slot; unscheduled slots fall back to spawn order). The
// victim's status is its program's last load. attacksim's -custom mode
// is built on this.
func CustomDuel(seqLen int, shareA bool, victimProg, attackerProg isa.Program, schedule string) (AttackOutcome, error) {
	return duel{seqLen: seqLen, shareA: shareA, victim: program(victimProg), attacker: program(attackerProg), schedule: schedule}.run()
}

// Interleavings enumerates all merge orders of v victim slots with a
// attacker slots as V/A schedules — the cell grid of the "exhaustive"
// experiment.
func Interleavings(v, a int) []string {
	if v == 0 && a == 0 {
		return []string{""}
	}
	var out []string
	if v > 0 {
		for _, rest := range Interleavings(v-1, a) {
			out = append(out, "V"+rest)
		}
	}
	if a > 0 {
		for _, rest := range Interleavings(v, a-1) {
			out = append(out, "A"+rest)
		}
	}
	return out
}
