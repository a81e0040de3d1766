// Command perfbench is the repository's benchmark. It builds nothing
// itself (run.sh builds existdlog and this command), starts
// `existdlog serve` as a separate process with tracing off, drives one
// named workload at it from a seeded schedule, checks every answer and
// the durable state after a SIGKILL, and prints every end-to-end
// metric by name with its unit. With -trace 1 it also replays the same
// schedule in-process with spans around each layer's public functions
// and reports the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload readwrite --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --workload existential --seed 11 --steady 5
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is 1 when an answer or
// the recovered state is wrong, 3 when the generator lagged its own
// schedule past lagBoundMS (the run is invalid), 2 on any other error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/parser"
)

func main() {
	name := flag.String("workload", "", "existential, readwrite, or all")
	seed := flag.Int64("seed", 1, "schedule seed; the same seed sends the same operations")
	seconds := flag.Int("seconds", 40, "measured time of one run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	bin := flag.String("bin", "", "the existdlog binary to serve")
	steady := flag.Int("steady", 0, "run K times on seeds seed..seed+K-1 and print each metric's median and quartiles")
	flag.Parse()

	var list []spec
	if *name == "all" {
		list = specs
	} else if sp, ok := specByName(*name); ok {
		list = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *bin == "" || *seconds < 4 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -seconds >= 4 and -trace 0 or 1")
		os.Exit(2)
	}
	// The generator takes at most one thread per core, and one
	// connection per core. It collects garbage less often than the
	// default, so its own collections seldom delay a send.
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(400)

	code := 0
	for _, sp := range list {
		if *steady > 0 {
			if err := steadiness(sp, *bin, *seed, *seconds, *traced == 1, *steady); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(2)
			}
			continue
		}
		out, err := run(sp, *bin, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		out.print(os.Stdout)
		if c := out.exitCode(); c > code {
			code = c
		}
		if out.exitCode() == 3 {
			continue // an invalid run prints no result line
		}
		line, _ := json.Marshal(out.result(*traced == 1))
		fmt.Println(string(line))
	}
	os.Exit(code)
}

// outcome is everything one run measured and checked.
type outcome struct {
	sp                spec
	seed              int64
	digest            string
	e2e, layer        map[string]float64
	attempted, failed int
	wrong             int
	stateErrs         []string
	reads, writes     int
	peakOps           int
	traced            bool
	replayP50         [2]float64      // untraced and traced halves of the replay
	serverP50         float64         // the server's own elapsed time of reads
	inServerP50       float64         // the replay's time in the same layers
	outsideByOp       map[int]float64 // main-phase read -> latency outside the server, ms
	timings           []string        // wall time of each step of the run
	classes           []string        // latency of each class of the open loop
	host              string          // what kept the machine busy meanwhile
	failures          map[string]int
}

func (o *outcome) correct() bool { return o.wrong == 0 && len(o.stateErrs) == 0 }

func (o *outcome) valid() bool { return o.layer["workload.lag_p99_ms"] <= lagBoundMS }

func (o *outcome) exitCode() int {
	switch {
	case !o.correct():
		return 1
	case !o.valid():
		return 3
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (o *outcome) result(traced bool) resultLine {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layer
	}
	m := map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer that saw no samples; JSON has no NaN
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return resultLine{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// print writes the human-readable report: provenance, every metric by
// name with its unit, the verdicts and the traced/untraced comparison.
func (o *outcome) print(w *os.File) {
	fmt.Fprintf(w, "== workload %s (seed %d) ==\n", o.sp.name, o.seed)
	fmt.Fprintf(w, "provenance: nproc=%d GOMAXPROCS=%d cpu=%q go=%s rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), gitRev())
	fmt.Fprintf(w, "schedule: seed=%d digest=%s open-loop rate=%g ops/s reads=%d writes=%d peak-phase ops=%d\n",
		o.seed, o.digest, o.sp.rate, o.reads, o.writes, o.peakOps)
	fmt.Fprintf(w, "flush policy: %s\n", flushPolicy)
	fmt.Fprintf(w, "steps: %s\n", strings.Join(o.timings, ", "))
	fmt.Fprintln(w, o.host)
	for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, o.e2e[d.name], d.unit)
	}
	for _, c := range o.classes {
		fmt.Fprintf(w, "    %s\n", c)
	}
	fmt.Fprintf(w, "  %d of %d operations failed; %d reads and %d writes timed\n", o.failed, o.attempted, o.reads, o.writes)
	reasons := make([]string, 0, len(o.failures))
	for reason := range o.failures {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(w, "    failure: %dx %s\n", o.failures[reason], reason)
	}
	for _, e := range o.stateErrs {
		fmt.Fprintf(w, "    state check failed: %s\n", e)
	}
	verdict := func(metric string, limit float64) {
		v := o.e2e[metric]
		met := "met"
		if v > limit {
			met = "NOT met"
		}
		fmt.Fprintf(w, "verdict: %s %.2f ms against limit %.0f ms: %s\n", metric, v, limit, met)
	}
	verdict("read_p99_ms", o.sp.readLimitMS)
	verdict("write_p99_ms", o.sp.writeLimitMS)
	validity := "valid"
	if !o.valid() {
		validity = "INVALID"
	}
	fmt.Fprintf(w, "harness: %s (workload.lag_p99_ms %.3f, bound %d ms)\n", validity, o.layer["workload.lag_p99_ms"], lagBoundMS)
	if o.traced {
		fmt.Fprintf(w, "read p50 side by side: http untraced %.4f ms | in-process replay, untraced half %.4f ms | traced half %.4f ms\n",
			o.e2e["read_p50_ms"], o.replayP50[0], o.replayP50[1])
		fmt.Fprintf(w, "read p50 split: http.outside_p50_ms %.4f + server elapsed p50 %.4f ms (replay: %.4f ms in decode, parse, compile, evaluate)\n",
			o.layer["http.outside_p50_ms"], o.serverP50, o.inServerP50)
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, o.layer[d.name], d.unit)
		}
	}
	if !o.correct() {
		fmt.Fprintf(w, "WRONG: %d wrong answers, %d state check failures\n", o.wrong, len(o.stateErrs))
	}
}

// restarts is how many times a run times set-up and recovery; each
// reports the median.
const restarts = 15

// run performs one full run of a workload.
func run(sp spec, bin string, seed int64, seconds int, traced bool) (*outcome, error) {
	conns := runtime.NumCPU()
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", sp.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	src := sp.program()
	progPath := filepath.Join(dir, "program.dl")
	if err := os.WriteFile(progPath, []byte(src), 0o644); err != nil {
		return nil, err
	}
	sched := newSchedule(sp, seed, seconds)
	refs, goals, err := references(src, sched)
	if err != nil {
		return nil, err
	}
	o := &outcome{sp: sp, seed: seed, digest: sched.digest(sp.name, seed), traced: traced,
		e2e: map[string]float64{}, layer: map[string]float64{}, failures: map[string]int{}}
	o.layer["parser.program_ms"] = parseProgramMS(src)
	lap := time.Now()
	step := func(name string) {
		o.timings = append(o.timings, fmt.Sprintf("%s %.1fs", name, time.Since(lap).Seconds()))
		lap = time.Now()
	}

	// Set-up: spawn serve on a fresh data directory until /readyz
	// answers, restarts times; the last instance serves the run.
	var setups []float64
	var srv *served
	var dataDir string
	for i := 0; i < restarts; i++ {
		dataDir = filepath.Join(dir, fmt.Sprintf("data%d", i))
		s, d, err := startServer(bin, progPath, dataDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < restarts-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.timings = append(o.timings, fmt.Sprintf("set-ups %.1f ms", scaled(setups, 1000)))
	step("setup")
	alive := srv
	defer func() {
		if alive != nil {
			alive.kill()
		}
	}()

	cl := &client{base: srv.base, refs: refs, goals: goals}
	track := newAcks()
	tally := func(ph *phase, res []result) {
		for i, r := range res {
			o.attempted++
			if !r.ok {
				o.failed++
				o.failures[failureReason(r)]++
			}
			if r.wrong {
				o.wrong++
			}
			track.note(ph.ops[i], r)
		}
	}

	warm, _ := cl.runPhase(&sched.warm, conns, newPairs())
	tally(&sched.warm, warm)
	step("warm")

	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	hostBusy0, steal0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	self0, err := cpuTicks(os.Getpid())
	if err != nil {
		return nil, err
	}
	main, mainDur := cl.runPhase(&sched.main, conns, newPairs())
	hostBusy1, steal1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	self1, err := cpuTicks(os.Getpid())
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	tally(&sched.main, main)
	step("open")

	// Capacity: the completion rate of the closed loop, run as four
	// consecutive quarters, each on fresh connections.
	var rates []float64
	var peakTime time.Duration
	peakPairs := newPairs()
	for q := 0; q < 4; q++ {
		ops := sched.peak.ops[q*len(sched.peak.ops)/4 : (q+1)*len(sched.peak.ops)/4]
		quarter := &phase{name: sched.peak.name, ops: ops}
		res, d := cl.runPhase(quarter, conns, peakPairs)
		tally(quarter, res)
		n := 0
		for _, r := range res {
			if r.ok {
				n++
			}
		}
		o.peakOps += n
		peakTime += d
		rates = append(rates, float64(n)/d.Seconds())
	}
	o.e2e["peak_rps"] = float64(o.peakOps) / peakTime.Seconds()
	o.timings = append(o.timings, fmt.Sprintf("peak quarters %.0f ops/s", rates))
	step("peak")

	probe, _ := cl.runPhase(&sched.probe, conns, newPairs())
	tally(&sched.probe, probe)
	step("probe")

	// Peak memory: the server's high-water mark over set-up and every
	// phase, read once before the state checks add queries of their own.
	if o.e2e["peak_rss_mb"], err = peakRSS(srv.pid()); err != nil {
		return nil, err
	}

	// Latency: reads and (for readwrite) writes of the open loop, from
	// their due times; otherwise writes of the closed probe phase.
	var readLat, writeLat, lag, wait, outside, elapsed []float64
	var st statsJSON
	answers := 0
	o.outsideByOp = map[int]float64{}
	for i, r := range main {
		lag = append(lag, ms(r.lag))
		wait = append(wait, ms(r.wait))
		if r.kind == opRead {
			readLat = append(readLat, ms(r.end-r.due))
			if r.ok {
				outside = append(outside, ms(r.end-r.due)-r.elapsed*1000)
				o.outsideByOp[i] = outside[len(outside)-1]
				elapsed = append(elapsed, r.elapsed*1000)
				st.Iterations += r.stats.Iterations
				st.FactsDerived += r.stats.FactsDerived
				st.Derivations += r.stats.Derivations
				st.DuplicateHits += r.stats.DuplicateHits
				st.JoinProbes += r.stats.JoinProbes
				st.RulesRetired += r.stats.RulesRetired
				answers += r.answers
			}
		} else {
			writeLat = append(writeLat, ms(r.end-r.due))
		}
	}
	if len(probe) > 0 {
		writeLat = writeLat[:0]
		for _, r := range probe {
			writeLat = append(writeLat, ms(r.end-r.start))
		}
	}
	o.reads, o.writes = len(readLat), len(writeLat)
	byClass := map[string][]float64{}
	var names []string
	for i, r := range main {
		c := sched.main.ops[i].class
		if _, ok := byClass[c]; !ok {
			names = append(names, c)
		}
		byClass[c] = append(byClass[c], ms(r.end-r.due))
	}
	sort.Strings(names)
	for _, c := range names {
		o.classes = append(o.classes, fmt.Sprintf("%-14s n=%-6d p50 %9.3f ms  p99 %9.3f ms", c, len(byClass[c]),
			quantile(byClass[c], 0.5), quantile(byClass[c], 0.99)))
	}
	o.e2e["read_p50_ms"] = quantile(readLat, 0.5)
	o.e2e["read_p99_ms"] = quantile(readLat, 0.99)
	o.e2e["write_p50_ms"] = quantile(writeLat, 0.5)
	o.e2e["write_p99_ms"] = quantile(writeLat, 0.99)

	o.layer["workload.lag_p99_ms"] = quantile(lag, 0.99)
	o.layer["workload.conn_wait_p99_ms"] = quantile(wait, 0.99)
	o.layer["http.outside_p50_ms"] = quantile(outside, 0.5)
	o.layer["http.outside_p99_ms"] = quantile(outside, 0.99)
	o.serverP50 = quantile(elapsed, 0.5)
	nReads := float64(len(outside))
	o.layer["engine.facts_per_answer"] = ratio(float64(st.FactsDerived), float64(answers))
	o.layer["engine.probes_per_answer"] = ratio(float64(st.JoinProbes), float64(answers))
	o.layer["engine.passes_per_query"] = ratio(float64(st.Iterations), nReads)
	o.layer["engine.dup_ratio"] = ratio(float64(st.DuplicateHits), float64(st.Derivations))
	o.layer["engine.rules_retired_per_query"] = ratio(float64(st.RulesRetired), nReads)

	diff := func(family, sample string, labels map[string]string) float64 {
		return after.value(family, sample, labels) - before.value(family, sample, labels)
	}
	hits := diff("existdlog_optimize_cache_total", "existdlog_optimize_cache_total", map[string]string{"result": "hit"})
	misses := diff("existdlog_optimize_cache_total", "existdlog_optimize_cache_total", map[string]string{"result": "miss"})
	o.layer["optimizer.miss_ratio"] = ratio(misses, hits+misses)
	mainOps := 0
	for _, r := range main {
		if r.ok {
			mainOps++
		}
	}
	// How busy the machine was, and who kept it busy, shows whether a
	// run shared its cores with anything else.
	share := func(ticks int64) float64 {
		return 100 * float64(ticks) * clockTick.Seconds() / (mainDur.Seconds() * float64(runtime.NumCPU()))
	}
	serverTicks := after.cpuTicks - before.cpuTicks
	o.host = fmt.Sprintf("host during the open loop: %.0f%% busy (server %.0f%%, generator %.0f%%, other %.0f%%), %.1f%% stolen",
		share(hostBusy1-hostBusy0), share(serverTicks), share(self1-self0),
		share(hostBusy1-hostBusy0-serverTicks-(self1-self0)), share(steal1-steal0))
	o.layer["process.cpu_ms_per_op"] = ratio(ms(time.Duration(after.cpuTicks-before.cpuTicks)*clockTick), float64(mainOps))
	o.layer["runtime.gc_pause_ms"] = ms(gcPause(before, after))
	o.layer["runtime.gc_count"] = float64(after.numGC - before.numGC)

	// The store and WAL counters cover the whole run, so read-only
	// workloads include their probe writes.
	end, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	full := func(family, sample string) float64 { return end.value(family, sample, nil) }
	batches := full("existdlog_maintenance_duration_seconds", "existdlog_maintenance_duration_seconds_count")
	o.layer["store.maintain_mean_ms"] = 1000 * ratio(full("existdlog_maintenance_duration_seconds", "existdlog_maintenance_duration_seconds_sum"), batches)
	o.layer["store.batch_mean"] = ratio(full("existdlog_applied_batch_size", "existdlog_applied_batch_size_sum"),
		full("existdlog_applied_batch_size", "existdlog_applied_batch_size_count"))
	o.layer["store.reeval_ratio"] = ratio(full("existdlog_reevals_total", "existdlog_reevals_total"), batches)
	o.layer["wal.records_per_sync"] = ratio(full("existdlog_wal_records_total", "existdlog_wal_records_total"),
		full("existdlog_wal_syncs_total", "existdlog_wal_syncs_total"))

	o.stateErrs = append(o.stateErrs, checkState(srv, src, track)...)
	stored, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	o.layer["wal.bytes_per_user_byte"] = ratio(float64(stored), float64(track.userBytes))

	// Recovery: SIGKILL, restart on the same directory, time to ready;
	// restarts times, checking the recovered state after the last.
	var recoveries []float64
	for i := 0; i < restarts; i++ {
		alive.kill()
		alive = nil
		s, d, err := startServer(bin, progPath, dataDir)
		if err != nil {
			return nil, err
		}
		alive = s
		recoveries = append(recoveries, d.Seconds())
	}
	o.e2e["recovery_s"] = quantile(recoveries, 0.5)
	o.e2e["fail_frac"] = ratio(float64(o.failed), float64(o.attempted))
	o.timings = append(o.timings, fmt.Sprintf("recoveries %.1f ms", scaled(recoveries, 1000)))
	for _, e := range checkState(alive, src, track) {
		o.stateErrs = append(o.stateErrs, "after recovery: "+e)
	}
	alive.kill()
	alive = nil
	step("check+recovery")

	if traced {
		if err := o.traceLayers(src, dir, sched, conns, refs, goals); err != nil {
			return nil, err
		}
		step("replay")
	}
	return o, nil
}

// traceLayers replays the schedule in-process, tracing every other
// request, then the write stream through the engine and the log, and
// derives the per-layer metrics from the spans.
func (o *outcome) traceLayers(src, dir string, sched *schedule, conns int, refs map[string]uint64, goals map[string]ast.Atom) error {
	// The replay collects garbage as often as the server does, at the
	// runtime's default setting, so collection costs land in the same
	// layers they do there.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	runtime.GC()
	rp, err := newReplayer(src, filepath.Join(dir, "replay"), refs, goals)
	if err != nil {
		return err
	}
	st, err := rp.replay(sched, conns)
	if cerr := rp.store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	o.wrong += st.wrong
	var lat [2][]float64
	for i, r := range st.results {
		if r.kind == opRead {
			lat[1-i%2] = append(lat[1-i%2], ms(r.end-r.due))
		}
	}
	o.replayP50 = [2]float64{quantile(lat[0], 0.5), quantile(lat[1], 0.5)}
	o.layer["trace.overhead_frac"] = ratio(o.replayP50[1]-o.replayP50[0], o.replayP50[0])

	self := selfTimes(st.spans)
	layer := map[string][]float64{}
	inServer := map[int32]float64{} // read -> parser+optimizer+engine self time
	for i, sp := range st.spans {
		layer[sp.name] = append(layer[sp.name], ms(self[i]))
		switch sp.name {
		case "decode", "parser", "optimizer", "engine":
			inServer[sp.req] += ms(self[i])
		}
	}
	o.layer["http.decode_p50_us"] = 1000 * quantile(layer["decode"], 0.5)
	o.layer["parser.goal_p50_us"] = 1000 * quantile(layer["parser"], 0.5)
	o.layer["optimizer.compile_p50_ms"] = quantile(layer["optimizer"], 0.5)
	o.layer["optimizer.compile_p99_ms"] = quantile(layer["optimizer"], 0.99)
	rules := make([]float64, len(st.rulesOut))
	for i, n := range st.rulesOut {
		rules[i] = float64(n)
	}
	o.layer["optimizer.rules_out_mean"] = mean(rules)
	o.layer["engine.eval_p50_ms"] = quantile(layer["engine"], 0.5)
	o.layer["engine.eval_p99_ms"] = quantile(layer["engine"], 0.99)
	o.layer["encode.p50_us"] = 1000 * quantile(layer["encode"], 0.5)
	o.layer["store.mutate_p50_ms"] = quantile(layer["store"], 0.5)

	// Each traced read is the same operation, due at the same offset, as
	// one read of the untraced HTTP run. What the replay spent inside
	// the server's layers (decode, parse, compile, evaluate) plus what the HTTP
	// run spent outside the server's elapsed time should account for the
	// untraced read latency; the rest is unattributed.
	explained := make([]float64, 0, len(inServer))
	var spent []float64
	for req, v := range inServer {
		spent = append(spent, v)
		if out, ok := o.outsideByOp[int(req)]; ok {
			explained = append(explained, out+v)
		}
	}
	o.layer["trace.unattributed_frac"] = 1 - quantile(explained, 0.5)/o.e2e["read_p50_ms"]
	o.inServerP50 = quantile(spent, 0.5)

	maintain, syncs, err := writeReplay(src, dir, sched, 300)
	if err != nil {
		return err
	}
	o.layer["engine.maintain_p50_ms"] = quantile(durMS(maintain), 0.5)
	o.layer["wal.sync_p50_ms"] = quantile(durMS(syncs), 0.5)
	return nil
}

func failureReason(r result) string {
	reason := r.err
	if i := strings.Index(reason, ": "); i > 0 && strings.HasPrefix(reason, "status") {
		reason = reason[:i]
	}
	if len(reason) > 80 {
		reason = reason[:80]
	}
	return r.kind.String() + " " + reason
}

func parseProgramMS(src string) float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := parser.Parse(src); err != nil {
			return math.NaN()
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return quantile(xs, 0.5)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i > 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// gitRev is the checkout's revision, or "unknown" outside a git
// repository (the benchmark also runs from exported trees).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// steadiness runs one workload k times on consecutive seeds and prints
// each metric's median, quartiles and quartile spread as a share of the
// median, the figure the benchmark's bounds are set against.
func steadiness(sp spec, bin string, seed int64, seconds int, traced bool, k int) error {
	vals := map[string][]float64{}
	defs := append(append([]metricDef(nil), endToEnd...), reported...)
	if traced {
		defs = append(defs, perLayer...)
	}
	for i := 0; i < k; i++ {
		out, err := run(sp, bin, seed+int64(i), seconds, traced)
		if err != nil {
			return err
		}
		if !out.correct() || !out.valid() {
			out.print(os.Stdout)
			return errors.New("steadiness run was wrong or invalid")
		}
		for _, d := range defs {
			v, ok := out.e2e[d.name]
			if !ok {
				v = out.layer[d.name]
			}
			vals[d.name] = append(vals[d.name], v)
		}
		fmt.Printf("run %d/%d seed %d: %s; %s\n", i+1, k, seed+int64(i), strings.Join(out.timings, ", "), out.host)
	}
	fmt.Printf("== steadiness: workload %s, %d runs, seeds %d..%d ==\n", sp.name, k, seed, seed+int64(k)-1)
	for _, d := range defs {
		q1, q2, q3 := quartiles(vals[d.name])
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf(" (bound %.2f)", d.bound)
		}
		fmt.Printf("  %-32s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %.3f%s\n",
			d.name, q2, d.unit, q1, q3, ratio(q3-q1, math.Abs(q2)), bound)
		fmt.Printf("    values %.4g\n", vals[d.name])
	}
	return nil
}
