package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/sched"
)

// TestRenderStatusExitCode: `bhpoctl status` doubles as a health gate —
// exit 0 only when every ring member is alive; spares never fail it.
func TestRenderStatusExitCode(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name  string
		nodes []coord.NodeStatus
		want  int
	}{
		{"all alive", []coord.NodeStatus{
			{Name: "a", State: coord.StateAlive, LastProbe: now},
			{Name: "b", State: coord.StateAlive, LastProbe: now},
		}, 0},
		{"one degraded", []coord.NodeStatus{
			{Name: "a", State: coord.StateAlive, LastProbe: now},
			{Name: "b", State: coord.StateDegraded, LastProbe: now, LastError: "probe: timeout"},
		}, 1},
		{"one dead", []coord.NodeStatus{
			{Name: "a", State: coord.StateDead},
			{Name: "b", State: coord.StateAlive},
		}, 1},
		{"draining member", []coord.NodeStatus{
			{Name: "a", State: coord.StateAlive},
			{Name: "b", State: coord.StateDraining},
		}, 1},
		{"restoring member", []coord.NodeStatus{
			{Name: "a", State: coord.StateRestoring},
		}, 1},
		{"standby spares never fail the gate", []coord.NodeStatus{
			{Name: "a", State: coord.StateAlive},
			{Name: "s0", State: coord.StateStandby, Quarantined: true},
			{Name: "s1", State: coord.StateStandby},
		}, 0},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if got := renderStatus(&out, tc.nodes); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
		if !strings.Contains(out.String(), "NODE") || !strings.Contains(out.String(), "STATE") {
			t.Errorf("%s: missing table header:\n%s", tc.name, out.String())
		}
	}

	// Quarantined spares are flagged in the table.
	var out bytes.Buffer
	renderStatus(&out, []coord.NodeStatus{{Name: "s0", State: coord.StateStandby, Quarantined: true}})
	if !strings.Contains(out.String(), "s0!") {
		t.Errorf("quarantined standby not flagged:\n%s", out.String())
	}
}

// TestSubcommands runs status, tenants and the membership subcommands,
// in order, against a coordinator served over HTTP with one worker
// behind it, and checks each exit code and what each prints.
func TestSubcommands(t *testing.T) {
	worker := http.NewServeMux()
	worker.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
	})
	worker.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"tenants": []serve.TenantStatus{{
			TenantStats: sched.TenantStats{Tenant: "gold", Weight: 3, Evaluations: 42},
			JobsDone:    2,
		}}})
	})
	ws := httptest.NewServer(worker)
	defer ws.Close()
	c, err := coord.New(coord.Config{Nodes: []coord.Node{{Name: "a", URL: ws.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(c)
	defer cs.Close()
	member := func(cmd string) func([]string, *bytes.Buffer) int {
		return func(args []string, out *bytes.Buffer) int { return memberMain(cmd, args, out) }
	}
	status := func(args []string, out *bytes.Buffer) int { return statusMain(args, out) }
	tenants := func(args []string, out *bytes.Buffer) int { return tenantsMain(args, out) }

	steps := []struct {
		name string
		run  func([]string, *bytes.Buffer) int
		args []string
		exit int
		out  []string
	}{
		{"status of a healthy ring", status, nil, 0, []string{"NODE", "a ", "alive", ws.URL}},
		{"tenants merged by the coordinator", tenants, nil, 0, []string{"TENANT", "gold", " 42 "}},
		{"standby registers a spare", member("standby"), []string{"-node", "s0", "-url", ws.URL}, 0, []string{`"name": "s0"`, `"state": "standby"`}},
		{"a spare does not fail the gate", status, nil, 0, []string{"s0", "standby"}},
		{"join needs -url", member("join"), []string{"-node", "b"}, 2, nil},
		{"replace of an unknown node is refused", member("replace"), []string{"-node", "zz", "-url", ws.URL}, 1, nil},
		{"drain a member", member("drain"), []string{"-node", "a"}, 0, []string{`"state": "draining"`}},
		{"a draining member fails the gate", status, nil, 1, []string{"draining"}},
	}
	for _, st := range steps {
		var out bytes.Buffer
		got := st.run(append([]string{"-addr", cs.URL}, st.args...), &out)
		if got != st.exit {
			t.Errorf("%s: exit %d, want %d\n%s", st.name, got, st.exit, out.String())
		}
		for _, want := range st.out {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", st.name, want, out.String())
			}
		}
	}
}
