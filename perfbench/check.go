package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"existdlog"
	"existdlog/internal/engine"
)

// acks records what the server acknowledged for each written fact.
type acks struct {
	facts     map[string]*pairState
	userBytes int64 // bytes of acknowledged fact text
}

type pairState struct {
	updateOK, retractSent, retractOK bool
}

func newAcks() *acks { return &acks{facts: map[string]*pairState{}} }

func (a *acks) note(o op, r result) {
	if o.kind == opRead {
		return
	}
	ps, ok := a.facts[o.fact]
	if !ok {
		ps = &pairState{}
		a.facts[o.fact] = ps
	}
	if r.ok {
		a.userBytes += int64(len(o.fact))
	}
	if o.kind == opUpdate {
		ps.updateOK = r.ok
	} else {
		ps.retractSent = true
		ps.retractOK = r.ok
	}
}

// required reports whether a fact must be present (+1), must be absent
// (-1), or may be either (0) after every acknowledged write: an
// acknowledged retract removes it, an acknowledged update with no
// retract sent after it keeps it, and a write that failed leaves its
// effect unknown.
func (ps *pairState) required() int {
	switch {
	case ps.retractOK:
		return -1
	case ps.updateOK && !ps.retractSent:
		return 1
	}
	return 0
}

// query fetches a goal's full answer from a served instance.
func (s *served) query(goal string) ([][]string, error) {
	payload, _ := json.Marshal(map[string]any{"goal": goal, "timeout_ms": 30000})
	resp, err := s.client.Post(s.base+"/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query %s: status %d", goal, resp.StatusCode)
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	if qr.Partial {
		return nil, fmt.Errorf("query %s: partial answer", goal)
	}
	return qr.Answers, nil
}

// checkState verifies the served base state against the acknowledged
// writes, then the served tc fixpoint against a scratch evaluation of
// the program over that base state.
func checkState(s *served, src string, a *acks) []string {
	var errs []string
	served, err := s.query("e(X,Y)")
	if err != nil {
		return []string{err.Error()}
	}
	have := map[string]bool{}
	for _, row := range served {
		have[fmt.Sprintf("e(%s)", strings.Join(row, ","))] = true
	}
	_, edb, err := existdlog.Parse(src)
	if err != nil {
		return []string{err.Error()}
	}
	for _, row := range edb.Facts("e") {
		if f := fmt.Sprintf("e(%s)", strings.Join(row, ",")); !have[f] {
			errs = append(errs, "program fact lost: "+f)
		}
	}
	var lost, kept []string
	for f, ps := range a.facts {
		switch ps.required() {
		case 1:
			if !have[f] {
				lost = append(lost, f)
			}
		case -1:
			if have[f] {
				kept = append(kept, f)
			}
		}
	}
	sort.Strings(lost)
	sort.Strings(kept)
	if len(lost) > 0 {
		errs = append(errs, fmt.Sprintf("%d acknowledged updates missing, first %s", len(lost), lost[0]))
	}
	if len(kept) > 0 {
		errs = append(errs, fmt.Sprintf("%d acknowledged retracts still present, first %s", len(kept), kept[0]))
	}

	// Scratch fixpoint over the served base state: the program's other
	// relations plus the e rows the server holds.
	base := engine.NewDatabase()
	for _, key := range edb.Keys() {
		if key == "e" {
			continue
		}
		for _, row := range edb.Facts(key) {
			base.Add(key, row...)
		}
	}
	for _, row := range served {
		base.Add("e", row...)
	}
	or, err := newOracle(src, base)
	if err != nil {
		return append(errs, err.Error())
	}
	goal, _ := parseGoal("tc(X,Y)")
	tc, err := s.query("tc(X,Y)")
	if err != nil {
		return append(errs, err.Error())
	}
	if digest(goal, tc) != digest(goal, or.answers(goal)) {
		errs = append(errs, fmt.Sprintf("served tc fixpoint (%d rows) differs from a scratch evaluation", len(tc)))
	}
	return errs
}
