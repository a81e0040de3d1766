package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"existdlog/internal/engine"
	"existdlog/internal/workload"
)

// The benchmark's fixed definitions: workloads, metrics and the limits
// a run is judged by. BENCHMARK.json at the repository root repeats the
// names, units and bounds; spec_test.go keeps the two in step.

// flushPolicy is how every served instance persists writes: the serve
// defaults with a WAL directory, so one fsync covers each applier batch
// (group commit) and a checkpoint follows every 1024 logged records.
const flushPolicy = "serve -wal: one fsync per group-commit batch, checkpoint every 1024 records"

// lagBoundMS invalidates a run whose generator fell behind its own
// schedule: past this p99 dispatch lag the open loop no longer offers
// the load it claims.
const lagBoundMS = 50

// chainNodes is the length of the e chain every workload serves: the
// 200-node transitive closure the service has been measured on.
const chainNodes = 200

// freshSpace is the range fresh constants are drawn from. Goals naming
// a fresh constant are legal and answerable (the answer is empty) but
// seldom repeat, so nearly each one is a compile-cache miss.
const freshSpace = 10_000_000

// spec describes one workload: the program served, the open-loop rate,
// the request mix and the p99 limits its verdict is judged against.
type spec struct {
	name string
	why  string
	// rate is the open-loop arrival rate in operations per second,
	// set so the server's cores stay about two fifths busy.
	rate float64
	// mix is the operation mix. Operations are dealt from shuffled
	// blocks holding each class its weight's number of times, so every
	// run sends the mix in the same proportions; only the order and the
	// constants change with the seed.
	mix []class
	// probeRate, when set, adds a closed-loop phase of durable writes
	// after the reads, so a read-only workload still reports write
	// latency. It is the write rate measured with two connections,
	// which sizes the phase.
	probeRate float64
	// peakRate is the closed-loop peak measured with two connections,
	// which sizes the peak phase.
	peakRate float64
	// readLimitMS and writeLimitMS are the p99 verdict limits.
	readLimitMS, writeLimitMS float64
	program                   func() string
}

// class is one kind of operation in a mix. A class with no goal is a
// write: the next update or retract of the phase's write pairs.
type class struct {
	name   string
	weight int
	goal   func(rng *rand.Rand) string
}

// Two workloads: one where projection pushing fires and the engine does
// little, one where every goal is all-needed and the engine, the store
// and the log do the work. Each open-loop rate keeps the server's two
// cores about two fifths busy, so a slower host lengthens service times
// without letting queues build.
var specs = []spec{
	{
		name:         "existential",
		why:          "goals with don't-care positions and mostly fresh constants: projection pushing collapses tc, compile misses dominate",
		rate:         360,
		probeRate:    170,
		peakRate:     1280,
		readLimitMS:  10,
		writeLimitMS: 50,
		program:      existentialProgram,
		mix:          existentialMix,
	},
	{
		name:         "readwrite",
		why:          "all-needed tc(k,X) and tc(i,j) reads; 20% durable e(uK,0) writes as in the mixed scenario; flush: one fsync per group commit",
		rate:         40,
		peakRate:     125,
		readLimitMS:  50,
		writeLimitMS: 50,
		program:      chainProgram,
		mix:          readwriteMix,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry instead the end-to-end metric they should move, the workload
// where they should move it, and the workload where they should not.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves, movesOn     string
	flatOn             string
}

// endToEnd are the metrics BENCHMARK.json gates. The bounds come from
// the steadiness mode on a 2-core virtual machine, where run-to-run
// spread is mostly the machine's: a slower or busier host moves every
// latency together.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rps", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// reported are end-to-end metrics every run prints but BENCHMARK.json
// does not gate. Over ten held-out seeds the quartile spread of the
// p99s reached 0.53 (reads) and 0.60 (writes; readwrite's write p99
// rests on 259 samples), beyond the largest bound a gate may have,
// 0.25; recovery_s reached 0.24; and fail_frac reads 0 on a healthy run.
var reported = []metricDef{
	{name: "recovery_s", unit: "s", better: "lower"},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

const all = "all workloads"

var perLayer = []metricDef{
	{name: "workload.lag_p99_ms", unit: "ms", better: "lower", moves: "none", movesOn: all, flatOn: all},
	{name: "workload.conn_wait_p99_ms", unit: "ms", better: "lower", moves: "none", movesOn: all, flatOn: all},
	{name: "http.outside_p50_ms", unit: "ms", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "http.outside_p99_ms", unit: "ms", better: "lower", moves: "read_p99_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "http.decode_p50_us", unit: "us", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "parser.goal_p50_us", unit: "us", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "parser.program_ms", unit: "ms", better: "lower", moves: "setup_s", movesOn: all, flatOn: "none"},
	{name: "optimizer.miss_ratio", unit: "ratio", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "optimizer.compile_p50_ms", unit: "ms", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "optimizer.compile_p99_ms", unit: "ms", better: "lower", moves: "read_p99_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "optimizer.rules_out_mean", unit: "count", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "engine.eval_p50_ms", unit: "ms", better: "lower", moves: "read_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.eval_p99_ms", unit: "ms", better: "lower", moves: "read_p99_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.facts_per_answer", unit: "count", better: "lower", moves: "read_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.probes_per_answer", unit: "count", better: "lower", moves: "read_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.passes_per_query", unit: "count", better: "lower", moves: "read_p99_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.dup_ratio", unit: "ratio", better: "lower", moves: "peak_rps", movesOn: "readwrite", flatOn: "existential"},
	{name: "engine.rules_retired_per_query", unit: "count", better: "higher", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "engine.maintain_p50_ms", unit: "ms", better: "lower", moves: "write_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "encode.p50_us", unit: "us", better: "lower", moves: "read_p50_ms", movesOn: "existential", flatOn: "readwrite"},
	{name: "store.mutate_p50_ms", unit: "ms", better: "lower", moves: "write_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "store.maintain_mean_ms", unit: "ms", better: "lower", moves: "write_p99_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "store.batch_mean", unit: "count", better: "higher", moves: "write_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "store.reeval_ratio", unit: "ratio", better: "lower", moves: "write_p99_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "wal.records_per_sync", unit: "count", better: "higher", moves: "write_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "wal.sync_p50_ms", unit: "ms", better: "lower", moves: "write_p50_ms", movesOn: "readwrite", flatOn: "existential"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower", moves: "recovery_s", movesOn: "readwrite", flatOn: "existential"},
	{name: "process.cpu_ms_per_op", unit: "ms", better: "lower", moves: "peak_rps", movesOn: all, flatOn: "none"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "read_p99_ms", movesOn: all, flatOn: "none"},
	{name: "runtime.gc_count", unit: "count", better: "lower", moves: "peak_rss_mb", movesOn: all, flatOn: "none"},
	{name: "trace.unattributed_frac", unit: "ratio", better: "lower", moves: "none", movesOn: all, flatOn: all},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none", movesOn: all, flatOn: all},
}

// tcRules is the transitive closure every workload serves over e.
const tcRules = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"

func chainProgram() string {
	db := engine.NewDatabase()
	workload.Chain(db, "e", chainNodes)
	return renderProgram("% transitive closure over a 200-node chain\n"+tcRules+"?- tc(X,Y).\n", db)
}

// existentialProgram serves tc beside the corpus's Example 1 (an
// existential transitive closure over p) and its same-generation query
// with an existential partner (testdata/corpus/ex1_projection.dl and
// sg_existential.dl).
func existentialProgram() string {
	db := engine.NewDatabase()
	workload.Chain(db, "e", chainNodes)
	workload.Chain(db, "p", 50)
	workload.SameGenTowers(db, "up", "dn", "flat", 6, 4)
	for t := 0; t < 4; t++ {
		for i := 0; i <= 6; i += 2 {
			db.Add("person", workload.TowerNode(t, 'a', i))
		}
	}
	rules := "% tc, Example 1 and same-generation, each with don't-care positions\n" + tcRules +
		"query(X) :- a(X,Y).\na(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n" +
		"buddyless(X) :- person(X), sg(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), dn(V,Y).\nsg(X,Y) :- flat(X,Y).\n" +
		"?- query(X).\n"
	return renderProgram(rules, db)
}

func renderProgram(rules string, db *engine.Database) string {
	var sb strings.Builder
	sb.WriteString(rules)
	for _, key := range db.Keys() {
		for _, row := range db.Facts(key) {
			fmt.Fprintf(&sb, "%s(%s).\n", key, strings.Join(row, ","))
		}
	}
	return sb.String()
}

// readwriteMix is the committed mixed scenario's traffic
// (workload.Scenarios["mixed"]: 60% point, 10% full-closure and 10%
// boolean goals, 20% writes) without its full-closure goals, whose
// answer depends on the writes in flight. Reads keep its point to
// boolean ratio of 6:1 and writes its 20% share: 24, 4 and 7 of every
// 35 operations. No read answer depends on a write: the written edges
// leave fresh nodes, which no goal names.
var readwriteMix = []class{
	{"point", 24, pointGoal},
	{"boolean", 4, func(rng *rand.Rand) string {
		return fmt.Sprintf("tc(%d,%d)", rng.Intn(chainNodes), rng.Intn(chainNodes))
	}},
	{"write", 7, nil},
}

func pointGoal(rng *rand.Rand) string { return fmt.Sprintf("tc(%d,X)", rng.Intn(chainNodes)) }

// node draws a chain node a quarter of the time and a fresh constant
// otherwise, so most bound goals are new to the compile cache.
func node(rng *rand.Rand, nodes int) string {
	if rng.Intn(4) == 0 {
		return fmt.Sprint(rng.Intn(nodes))
	}
	return fmt.Sprint(nodes + 1 + rng.Intn(freshSpace))
}

func towerNode(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return workload.TowerNode(rng.Intn(4), 'a', rng.Intn(7))
	}
	return workload.TowerNode(4+rng.Intn(freshSpace), 'a', rng.Intn(7))
}

// existentialMix asks tc, Example 1's a and same-generation goals with
// don't-care positions, bound mostly to fresh constants.
var existentialMix = []class{
	{"tc(k,_)", 5, func(rng *rand.Rand) string { return "tc(" + node(rng, chainNodes) + ",_)" }},
	{"tc(_,k)", 5, func(rng *rand.Rand) string { return "tc(_," + node(rng, chainNodes) + ")" }},
	{"tc(X,_)", 2, func(*rand.Rand) string { return "tc(X,_)" }},
	{"a(k,_)", 3, func(rng *rand.Rand) string { return "a(" + node(rng, 50) + ",_)" }},
	{"query(X)", 1, func(*rand.Rand) string { return "query(X)" }},
	{"sg(k,_)", 2, func(rng *rand.Rand) string { return "sg(" + towerNode(rng) + ",_)" }},
	{"buddyless(X)", 1, func(*rand.Rand) string { return "buddyless(X)" }},
	{"buddyless(k)", 1, func(rng *rand.Rand) string { return "buddyless(" + towerNode(rng) + ")" }},
}

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opRetract
)

func (k opKind) String() string {
	switch k {
	case opUpdate:
		return "update"
	case opRetract:
		return "retract"
	}
	return "read"
}

// op is one scheduled operation. Writes come in pairs: update pair k
// adds e(<tag>k,0) off the chain head and retract pair k removes it
// again; a retract is sent only once its update has been answered, so
// the expected final state is known exactly.
type op struct {
	due   time.Duration // open loop: offset from the phase start
	kind  opKind
	class string
	goal  string
	fact  string
	pair  int
}

// phase is one stream of operations and how it is driven.
type phase struct {
	name string
	open bool // open loop at the ops' due times; else closed loop
	ops  []op
}

// schedule is every input one run sends, generated from the seed alone.
type schedule struct {
	warm, main, peak, probe phase
}

func (s *schedule) phases() []*phase { return []*phase{&s.warm, &s.main, &s.peak, &s.probe} }

// minReads keeps at least ten reads beyond the open loop's p99.
const minReads = 1010

// minPeak is the fewest operations the closed-loop phase sends, so its
// rate rests on enough of them however slow each one is.
const minPeak = 400

// openShare is the share of a run's measured seconds the open loop
// takes; the closed-loop phases share the rest.
const openShare = 0.8

// newSchedule draws a run's operations for a run measuring seconds.
// Each phase has its own random stream derived from the seed, so phase
// lengths never shift each other.
func newSchedule(sp spec, seed int64, seconds int) *schedule {
	rngFor := func(i int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + i)) }
	s := &schedule{}
	openSecs := openShare * float64(seconds)
	peakSecs := (1 - openShare) * float64(seconds)
	probeSecs := 0.0
	if sp.probeRate > 0 {
		peakSecs, probeSecs = peakSecs/2, peakSecs/2
	}

	// About one second of the open-loop rate warms the compile cache,
	// the connections and (with writes) the lazy materialization.
	s.warm = phase{name: "warm"}
	rng := rngFor(1)
	drawOps(sp, rng, &s.warm, max(20, int(sp.rate)), "uw")

	// The open loop sends a fixed number of operations, whole blocks of
	// the mix, arriving as a Poisson process: enough for openSecs at the
	// workload's rate, and never fewer than ten reads beyond the p99.
	s.main = phase{name: "open", open: true}
	rng = rngFor(2)
	reads, writes := sp.perBlock()
	blocks := max(ceilDiv(int(sp.rate*openSecs), reads+writes), ceilDiv(minReads, reads))
	n := blocks * (reads + writes)
	var offsets []time.Duration
	for len(offsets) < n {
		// Each extension is a fresh second of arrivals after the last.
		var base time.Duration
		if len(offsets) > 0 {
			base = offsets[len(offsets)-1]
		}
		more := workload.Arrivals(rng, []workload.Period{{Rate: sp.rate, Duration: time.Second}})
		for _, off := range more {
			offsets = append(offsets, base+off)
		}
	}
	d := dealer{sp: sp, tag: "uo"}
	for _, off := range offsets[:n] {
		o := d.next(rng)
		o.due = off
		s.main.ops = append(s.main.ops, o)
	}

	// The closed loop sends whole blocks too, about peakSecs' worth at
	// the measured peak and never fewer than minPeak operations.
	s.peak = phase{name: "peak"}
	rng = rngFor(3)
	blocks = ceilDiv(max(minPeak, int(sp.peakRate*peakSecs)), reads+writes)
	drawOps(sp, rng, &s.peak, blocks*(reads+writes), "uc")

	// Probe writes come in whole update/retract pairs.
	s.probe = phase{name: "probe"}
	w := dealer{tag: "up"}
	for i := 0; i < 2*int(sp.probeRate*probeSecs/2); i++ {
		s.probe.ops = append(s.probe.ops, w.write())
	}
	return s
}

// perBlock counts the reads and writes in one block of the mix.
func (sp spec) perBlock() (reads, writes int) {
	for _, c := range sp.mix {
		if c.goal == nil {
			writes += c.weight
		} else {
			reads += c.weight
		}
	}
	return reads, writes
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func drawOps(sp spec, rng *rand.Rand, ph *phase, n int, tag string) {
	w := dealer{sp: sp, tag: tag}
	for i := 0; i < n; i++ {
		ph.ops = append(ph.ops, w.next(rng))
	}
}

// dealer deals a phase's operations from shuffled blocks of the mix
// and numbers its write pairs.
type dealer struct {
	sp    spec
	tag   string
	block []int
	n     int
}

func (d *dealer) next(rng *rand.Rand) op {
	if len(d.block) == 0 {
		for i, c := range d.sp.mix {
			for j := 0; j < c.weight; j++ {
				d.block = append(d.block, i)
			}
		}
		rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	c := d.sp.mix[d.block[0]]
	d.block = d.block[1:]
	if c.goal == nil {
		return d.write()
	}
	return op{kind: opRead, class: c.name, goal: c.goal(rng)}
}

func (d *dealer) write() op {
	k := d.n / 2
	kind := opUpdate
	if d.n%2 == 1 {
		kind = opRetract
	}
	d.n++
	return op{kind: kind, class: kind.String(), fact: fmt.Sprintf("e(%s%d,0)", d.tag, k), pair: k}
}

// digest fingerprints every operation of the schedule through the
// workload package's trace digest.
func (s *schedule) digest(name string, seed int64) string {
	tr := &workload.Trace{Schema: workload.TraceSchema, Scenario: name, Seed: seed}
	for _, ph := range s.phases() {
		for _, o := range ph.ops {
			r := workload.Request{Offset: o.due, Class: workload.Class(ph.name + "/" + o.kind.String()), Goal: o.goal}
			if o.fact != "" {
				r.Facts = []string{o.fact}
			}
			tr.Requests = append(tr.Requests, r)
		}
	}
	return tr.Digest()
}
