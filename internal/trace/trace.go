// Package trace is the observability subsystem shared by the engine and
// the optimizer: per-rule/per-pass evaluation metrics (this file) and the
// stage-by-stage optimization EXPLAIN report (explain.go).
//
// The metrics side mirrors the engine's pass-barrier architecture. The
// counters rule versions bump mid-pass (join probes, firings) accumulate
// in the evaluator's Shard, which is drained into the Collector only at
// pass barriers — the same place the engine merges derivation buffers.
// Merge-side counters (emitted tuples, new facts, duplicates, cut events)
// are recorded at the merge itself, so they need no shard. Each pass
// record therefore describes one merged pass, on complete and aborted
// runs alike.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// RuleStats are the per-rule evaluation counters. They partition the
// engine's aggregate Stats: summed over rules, Emitted equals
// Stats.Derivations, Facts equals Stats.FactsDerived, Duplicates equals
// Stats.DuplicateHits, and JoinProbes equals Stats.JoinProbes — on
// complete and on partial (aborted) runs alike.
type RuleStats struct {
	// Rule is the index in the evaluated program's rule list.
	Rule int `json:"rule"`
	// Text is the rule's source form.
	Text string `json:"text,omitempty"`
	// Firings counts rule-version evaluations: one per (pass, delta
	// occurrence) the rule took part in.
	Firings int64 `json:"firings"`
	// Emitted counts head tuples produced, duplicates included.
	Emitted int64 `json:"emitted"`
	// Facts counts distinct new facts this rule contributed.
	Facts int64 `json:"facts"`
	// Duplicates counts emitted tuples rejected by duplicate elimination.
	Duplicates int64 `json:"duplicates"`
	// JoinProbes counts index probes performed evaluating this rule.
	JoinProbes int64 `json:"joinProbes"`
	// CutPass is the pass at whose barrier the boolean cut retired this
	// rule (0 = never retired).
	CutPass int `json:"cutPass,omitempty"`
}

// DeltaSize records the size of one predicate's delta at a pass start.
type DeltaSize struct {
	Predicate string `json:"predicate"`
	Size      int    `json:"size"`
}

// VersionOrder records the join order the runtime planner chose for one
// rule version at one pass barrier, with the live cardinalities that
// justified it. Only present when both tracing and join reordering are
// on.
type VersionOrder struct {
	// Rule is the index in the evaluated program's rule list.
	Rule int `json:"rule"`
	// Occ is the delta occurrence this version reads (-1 for the
	// naive/startup version).
	Occ int `json:"occ"`
	// Literals are the body literals in chosen evaluation order: the
	// relation key, prefixed "~" for the delta occurrence and "not " for
	// negated literals.
	Literals []string `json:"literals"`
	// Sizes[i] is the live cardinality the planner saw for Literals[i]
	// (the delta size for the delta literal, 1 for builtins).
	Sizes []int `json:"sizes"`
	// Bound[i] counts Literals[i]'s argument positions bound at probe
	// time — the bound-column index signature its probes use.
	Bound []int `json:"bound"`
	// Skipped marks a version the planner proved empty at the barrier (a
	// positive body relation or delta with zero live tuples): it was
	// never evaluated this pass.
	Skipped bool `json:"skipped,omitempty"`
}

// PassStats describe one fixpoint pass.
type PassStats struct {
	// Pass is the 1-based pass number (the engine's Stats.Iterations value
	// while the pass ran).
	Pass int `json:"pass"`
	// Stratum is the stratum the pass evaluated.
	Stratum int `json:"stratum"`
	// Versions is the number of rule versions the pass fanned out.
	Versions int `json:"versions"`
	// Facts is the number of distinct new facts the pass added.
	Facts int `json:"facts"`
	// Deltas are the delta relation sizes at the start of the pass, sorted
	// by predicate (empty for startup and naive passes).
	Deltas []DeltaSize `json:"deltas,omitempty"`
	// Cuts lists the rules the boolean cut retired at this pass's barrier.
	Cuts []int `json:"cuts,omitempty"`
	// Orders are the join orders the runtime planner chose for this
	// pass's versions (empty unless both tracing and reordering are on).
	Orders []VersionOrder `json:"orders,omitempty"`
}

// Metrics is a full evaluation trace: per-rule counters plus the pass
// timeline. It is deterministic for every strategy.
type Metrics struct {
	Rules  []RuleStats `json:"rules"`
	Passes []PassStats `json:"passes"`
}

// Totals sums the per-rule counters (emitted, facts, duplicates, probes).
// These must equal the engine's aggregate Stats on every run, partial runs
// included.
func (m *Metrics) Totals() (emitted, facts, duplicates, probes int64) {
	for i := range m.Rules {
		r := &m.Rules[i]
		emitted += r.Emitted
		facts += r.Facts
		duplicates += r.Duplicates
		probes += r.JoinProbes
	}
	return
}

// TotalFirings sums the per-rule firing counters — the companion to
// Totals for the one counter Stats does not aggregate (the obs registry
// drains it into its lifetime firing counter).
func (m *Metrics) TotalFirings() int64 {
	var n int64
	for i := range m.Rules {
		n += m.Rules[i].Firings
	}
	return n
}

// Retired counts rules with a recorded cut event.
func (m *Metrics) Retired() int {
	n := 0
	for i := range m.Rules {
		if m.Rules[i].CutPass > 0 {
			n++
		}
	}
	return n
}

// JSON renders the metrics as deterministic machine-readable JSON.
func (m *Metrics) JSON() ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// Format renders the metrics as the CLI's per-rule and per-pass tables.
func (m *Metrics) Format(w io.Writer) {
	fmt.Fprintf(w, "%%%% per-rule metrics\n")
	fmt.Fprintf(w, "%-4s %8s %8s %8s %8s %8s %4s  %s\n",
		"rule", "firings", "emitted", "facts", "dup", "probes", "cut", "text")
	for i := range m.Rules {
		r := &m.Rules[i]
		cut := "-"
		if r.CutPass > 0 {
			cut = fmt.Sprintf("p%d", r.CutPass)
		}
		fmt.Fprintf(w, "%-4d %8d %8d %8d %8d %8d %4s  %s\n",
			r.Rule+1, r.Firings, r.Emitted, r.Facts, r.Duplicates, r.JoinProbes, cut, r.Text)
	}
	fmt.Fprintf(w, "%%%% per-pass metrics\n")
	fmt.Fprintf(w, "%-4s %7s %8s %8s  %s\n", "pass", "stratum", "versions", "facts", "deltas")
	for i := range m.Passes {
		p := &m.Passes[i]
		var parts []string
		for _, d := range p.Deltas {
			parts = append(parts, fmt.Sprintf("%s=%d", d.Predicate, d.Size))
		}
		line := strings.Join(parts, " ")
		if len(p.Cuts) > 0 {
			var cuts []string
			for _, c := range p.Cuts {
				cuts = append(cuts, fmt.Sprint(c+1))
			}
			if line != "" {
				line += " "
			}
			line += "cut rules " + strings.Join(cuts, ",")
		}
		fmt.Fprintf(w, "%-4d %7d %8d %8d  %s\n", p.Pass, p.Stratum, p.Versions, p.Facts, line)
		for _, o := range p.Orders {
			fmt.Fprintf(w, "     %s\n", o.String())
		}
	}
}

// String renders one chosen order as the CLI's plan line, e.g.
// "plan r2#0: ~a/2=3 > e/2=512(1b)" — each literal with the live
// cardinality that justified its place and, when nonzero, the number of
// bound argument positions its probes use. A version the planner proved
// empty at the barrier ends in "skipped (empty join)".
func (o *VersionOrder) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan r%d#%d:", o.Rule+1, o.Occ)
	for i, lit := range o.Literals {
		if i > 0 {
			sb.WriteString(" >")
		}
		fmt.Fprintf(&sb, " %s=%d", lit, o.Sizes[i])
		if o.Bound[i] > 0 {
			fmt.Fprintf(&sb, "(%db)", o.Bound[i])
		}
	}
	if o.Skipped {
		sb.WriteString(" skipped (empty join)")
	}
	return sb.String()
}

// Collector accumulates one evaluation's Metrics. The merge-side methods
// (Emit, Fact, Duplicate, Cut, Pass) are called at merges and barriers;
// mid-pass counters go through a Shard.
type Collector struct {
	m Metrics
}

// NewCollector returns a collector for a program whose rules render as
// texts (one entry per rule, in program order).
func NewCollector(texts []string) *Collector {
	c := &Collector{}
	c.m.Rules = make([]RuleStats, len(texts))
	for i, text := range texts {
		c.m.Rules[i] = RuleStats{Rule: i, Text: text}
	}
	return c
}

// Shard holds the mid-pass counters of a running pass; Merge drains it at
// the pass barrier.
type Shard struct {
	Firings []int64 // per-rule version evaluations
	Probes  []int64 // per-rule join probes
}

// NewShard returns a zeroed shard sized for the collector's program.
func (c *Collector) NewShard() *Shard {
	n := len(c.m.Rules)
	return &Shard{Firings: make([]int64, n), Probes: make([]int64, n)}
}

// Merge drains s into the collector: counters are added and s is zeroed,
// so a long-lived shard can be merged at every barrier without double
// counting. Must be called at a pass barrier. A nil shard is a no-op.
func (c *Collector) Merge(s *Shard) {
	if s == nil {
		return
	}
	for i := range s.Firings {
		c.m.Rules[i].Firings += s.Firings[i]
		c.m.Rules[i].JoinProbes += s.Probes[i]
		s.Firings[i], s.Probes[i] = 0, 0
	}
}

// Emit records a head tuple produced by rule (duplicates included).
func (c *Collector) Emit(rule int) { c.m.Rules[rule].Emitted++ }

// Fact records a distinct new fact contributed by rule.
func (c *Collector) Fact(rule int) { c.m.Rules[rule].Facts++ }

// Duplicate records an emitted tuple of rule rejected as a duplicate.
func (c *Collector) Duplicate(rule int) { c.m.Rules[rule].Duplicates++ }

// Cut records the boolean cut retiring rule at the barrier after pass.
func (c *Collector) Cut(rule, pass int) {
	c.m.Rules[rule].CutPass = pass
	if n := len(c.m.Passes); n > 0 && c.m.Passes[n-1].Pass == pass {
		c.m.Passes[n-1].Cuts = append(c.m.Passes[n-1].Cuts, rule)
	}
}

// Pass appends a finished pass record. Aborted passes are recorded too,
// with whatever they added before the abort, so the timeline of a partial
// result stays consistent with its Stats.
func (c *Collector) Pass(p PassStats) { c.m.Passes = append(c.m.Passes, p) }

// Metrics returns the accumulated metrics. The collector must not be used
// afterwards (the returned value aliases its state).
func (c *Collector) Metrics() *Metrics { return &c.m }
