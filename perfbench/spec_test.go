package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"existdlog/internal/workload"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a := newSchedule(sp, 7, 4).digest(sp.name, 7)
		b := newSchedule(sp, 7, 4).digest(sp.name, 7)
		c := newSchedule(sp, 8, 4).digest(sp.name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", sp.name, a)
		}
	}
}

func TestScheduleHoldsEnoughSamplesAndOrderedPairs(t *testing.T) {
	for _, sp := range specs {
		s := newSchedule(sp, 3, 4)
		reads, writes := 0, 0
		for _, o := range s.main.ops {
			if o.kind == opRead {
				reads++
			} else {
				writes++
			}
		}
		if reads < minReads {
			t.Errorf("%s: %d reads leave fewer than ten samples beyond p99", sp.name, reads)
		}
		if len(s.peak.ops) < minPeak {
			t.Errorf("%s: %d closed-loop operations", sp.name, len(s.peak.ops))
		}
		if (sp.probeRate > 0) != (len(s.probe.ops) > 0) {
			t.Errorf("%s: %d probe writes at probe rate %g", sp.name, len(s.probe.ops), sp.probeRate)
		}
		for _, ph := range s.phases() {
			updated := map[string]bool{}
			for i, o := range ph.ops {
				if i > 0 && ph.open && o.due < ph.ops[i-1].due {
					t.Fatalf("%s/%s: op %d due before its predecessor", sp.name, ph.name, i)
				}
				switch o.kind {
				case opUpdate:
					updated[o.fact] = true
				case opRetract:
					if !updated[o.fact] {
						t.Fatalf("%s/%s: retract of %s precedes its update", sp.name, ph.name, o.fact)
					}
				}
			}
		}
	}
}

func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Command) == 0 || len(bf.Paths) == 0 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Fatalf("command, paths or run_seconds out of range: %+v", bf)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRe.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		check(w.Name, "x")
		if w.Name != specs[i].name || w.Why != specs[i].why || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q/%q does not match spec %q", i, w.Name, w.Why, specs[i].name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v differs from %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}

	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v differs from %+v", i, m, d)
		}
	}
}

// Every per-layer metric names the end-to-end metric it should move,
// the workload where it should move and the one where it should not.
func TestEveryLayerMetricSaysWhatItMoves(t *testing.T) {
	e2e := map[string]bool{"none": true}
	for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
		e2e[d.name] = true
	}
	workloads := map[string]bool{all: true, "none": true}
	for _, sp := range specs {
		workloads[sp.name] = true
	}
	for _, d := range perLayer {
		if !e2e[d.moves] {
			t.Errorf("%s moves unknown metric %q", d.name, d.moves)
		}
		if !workloads[d.movesOn] || !workloads[d.flatOn] {
			t.Errorf("%s names unknown workloads %q / %q", d.name, d.movesOn, d.flatOn)
		}
		if d.movesOn == d.flatOn && d.moves != "none" {
			t.Errorf("%s should move and stay flat on the same workload %q", d.name, d.movesOn)
		}
	}
}

// The references come from the unoptimized program and are projected
// onto the goal's named positions, which is what the optimizer serves.
func TestDigestComparesProjectedAnswers(t *testing.T) {
	or, err := newOracle(chainProgram(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGoal("tc(5,_)")
	if err != nil {
		t.Fatal(err)
	}
	full := or.answers(g)
	if len(full) != chainNodes-5 {
		t.Fatalf("tc(5,_) selected %d rows, want %d", len(full), chainNodes-5)
	}
	if digest(g, full) != digest(g, [][]string{{"5"}}) {
		t.Error("projected reference differs from the optimizer's one-column answer")
	}
	if digest(g, full) == digest(g, nil) {
		t.Error("non-empty and empty answers share a digest")
	}
}

// readwrite sends the committed mixed scenario's write share and its
// point to boolean ratio.
func TestReadwriteMixFollowsTheMixedScenario(t *testing.T) {
	m := workload.Scenarios["mixed"].Mix
	sp, _ := specByName("readwrite")
	w := map[string]float64{}
	total := 0.0
	for _, c := range sp.mix {
		w[c.name] = float64(c.weight)
		total += float64(c.weight)
	}
	if got := w["write"] / total; got != m.MutationRatio {
		t.Errorf("write share %g, mixed scenario %g", got, m.MutationRatio)
	}
	if got, want := w["point"]/w["boolean"], m.Point/m.Boolean; math.Abs(got-want) > 1e-9 {
		t.Errorf("point:boolean %g, mixed scenario %g", got, want)
	}
}

// At BENCHMARK.json's run_seconds the rate, not the sample floor, sizes
// every phase, so a run measures about run_seconds.
func TestRunSecondsSizesTheRun(t *testing.T) {
	secs := readBenchmarkFile(t).RunSeconds
	for _, sp := range specs {
		s := newSchedule(sp, 1, secs)
		reads, writes := sp.perBlock()
		if want := ceilDiv(int(sp.rate*openShare*float64(secs)), reads+writes) * (reads + writes); len(s.main.ops) != want {
			t.Errorf("%s: open loop sends %d operations, want %d from the rate", sp.name, len(s.main.ops), want)
		}
		measured := float64(len(s.main.ops))/sp.rate + float64(len(s.peak.ops))/sp.peakRate
		if sp.probeRate > 0 {
			measured += float64(len(s.probe.ops)) / sp.probeRate
		}
		if measured > 1.05*float64(secs) {
			t.Errorf("%s: phases take about %.1f s, run_seconds is %d", sp.name, measured, secs)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
