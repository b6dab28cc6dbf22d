package main

import (
	"math"
	"testing"
)

// TestShortBenchmark keeps the harness compiling and the golden check
// alive: every workload runs end to end in -short mode (two rounds of a
// quarter of the job list) against freshly built servers, every job must
// match golden.json, and every end-to-end metric of the contract must
// come out positive.
func TestShortBenchmark(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	opt := options{seed: 7, seconds: 5, short: true}
	for _, w := range workloads {
		r, res, err := e2eReport(h, spec, w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", w.name, r.Correct, r.Failed, r.Attempted, res.notes)
		}
		for _, m := range spec.EndToEnd {
			if v := r.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
			}
		}
	}
}

// TestShortTraced runs the traced run of the cheapest workload in -short
// mode and checks it reports every per-layer metric of the contract and
// that the instrumented evaluator matched the real one bit for bit.
func TestShortTraced(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	r, err := tracedReport(h, spec, workloadByName("solo-paper"), options{seed: 7, seconds: 5, short: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("traced run: correct=%v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run reported %d metrics, the contract lists %d", len(r.Metrics), len(spec.PerLayer))
	}
}

// TestHyperbandClosedForm pins the closed form the golden check holds
// Hyperband jobs against: s_max = ⌊log₃(R/20)⌋ brackets + 1, the last
// bracket s_max+1 configurations at the full budget.
func TestHyperbandClosedForm(t *testing.T) {
	for _, R := range []int{55, 320, 400, 700} {
		budgets, brackets := hyperbandSchedule(R)
		sMax := int(math.Floor(math.Log(float64(R)/20) / math.Log(3)))
		if brackets != sMax+1 {
			t.Errorf("R=%d: %d brackets, want %d", R, brackets, sMax+1)
		}
		tail := budgets[len(budgets)-(sMax+1):]
		for _, b := range tail {
			if b != R {
				t.Errorf("R=%d: last bracket charges %v, want %d configurations at %d", R, tail, sMax+1, R)
				break
			}
		}
	}
}
