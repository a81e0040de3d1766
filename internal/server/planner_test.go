package server

import (
	"fmt"
	"testing"
)

// hasOrders reports whether any pass record in a trace response carries
// planner order lines.
func hasOrders(out map[string]any) bool {
	passes, _ := out["passes"].([]any)
	for _, p := range passes {
		if m, ok := p.(map[string]any); ok {
			if o, ok := m["orders"].([]any); ok && len(o) > 0 {
				return true
			}
		}
	}
	return false
}

// TestQueryPlannerDefaultOnAndOverride: the runtime join planner is
// always on for served queries and its per-pass orders ride along in the
// trace response. A request still carrying the removed "reorder" field is
// decoded as before and the field ignored: the planner stays on and the
// goal hits the one cache entry its shape has.
func TestQueryPlannerDefaultOnAndOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})

	resp, on := postQuery(t, ts.URL, `{"goal": "a(X,Y)", "trace": true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body %v", resp.StatusCode, on)
	}
	if !hasOrders(on) {
		t.Fatalf("default (planner-on) trace has no per-pass orders: %v", on["passes"])
	}

	resp, stray := postQuery(t, ts.URL, `{"goal": "a(X,Y)", "reorder": false, "trace": true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("stray reorder field: status = %d, body %v", resp.StatusCode, stray)
	}
	if !stray["cached"].(bool) {
		t.Error("a stray reorder field compiled a second cache entry")
	}
	if !hasOrders(stray) {
		t.Errorf("a stray reorder field turned the planner off: %v", stray["passes"])
	}
	if fmt.Sprint(on["answers"]) != fmt.Sprint(stray["answers"]) {
		t.Errorf("a stray reorder field changed the answers\non:    %v\nstray: %v", on["answers"], stray["answers"])
	}
}
