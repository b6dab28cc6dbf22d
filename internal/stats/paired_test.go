package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSignTestClearWinner(t *testing.T) {
	a := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	winsA, winsB, p, _ := SignTest(a, b)
	if winsA != 10 || winsB != 0 {
		t.Fatalf("wins %d/%d", winsA, winsB)
	}
	if p > 0.01 {
		t.Fatalf("10/10 wins p = %v, want < 0.01", p)
	}
}

func TestSignTestBalanced(t *testing.T) {
	a := []float64{1, 2, 1, 2}
	b := []float64{2, 1, 2, 1}
	winsA, winsB, p, _ := SignTest(a, b)
	if winsA != 2 || winsB != 2 {
		t.Fatalf("wins %d/%d", winsA, winsB)
	}
	if p != 1 {
		t.Fatalf("balanced p = %v", p)
	}
}

func TestSignTestAllTies(t *testing.T) {
	a := []float64{1, 1, 1}
	_, _, p, _ := SignTest(a, a)
	if p != 1 {
		t.Fatalf("all-ties p = %v", p)
	}
}

func TestSignTestPanicsOnMismatch(t *testing.T) {
	assertPanics(t, "length mismatch", func() { SignTest([]float64{1}, []float64{1, 2}) })
}

func TestWilcoxonClearWinner(t *testing.T) {
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = float64(i) + 1 + 0.5 // always bigger by varying margins
		b[i] = float64(i) * 0.9
	}
	w, p, _ := WilcoxonSignedRank(a, b)
	if w != 0 {
		t.Fatalf("W = %v for a uniform winner", w)
	}
	if p > 0.001 {
		t.Fatalf("uniform winner p = %v", p)
	}
}

func TestWilcoxonNoEvidence(t *testing.T) {
	// Alternating small differences: no systematic direction.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1.1, 1.9, 3.1, 3.9, 5.1, 4.9, 7.1, 7.9}
	_, p, _ := WilcoxonSignedRank(a, b)
	if p < 0.2 {
		t.Fatalf("balanced differences p = %v, want large", p)
	}
}

func TestWilcoxonTooFewPairs(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{0, 1, 2}
	if _, p, _ := WilcoxonSignedRank(a, b); p != 1 {
		t.Fatalf("tiny sample p = %v, want 1", p)
	}
	// Zero differences are discarded.
	if _, p, _ := WilcoxonSignedRank(a, a); p != 1 {
		t.Fatalf("identical vectors p = %v", p)
	}
}

func TestWilcoxonHandlesTiedMagnitudes(t *testing.T) {
	a := []float64{2, 2, 2, 2, 2, 2}
	b := []float64{1, 1, 1, 1, 1, 1}
	w, p, _ := WilcoxonSignedRank(a, b)
	if w != 0 {
		t.Fatalf("W = %v", w)
	}
	if p > 0.05 {
		t.Fatalf("six uniform wins p = %v", p)
	}
}

func TestWilcoxonPanicsOnMismatch(t *testing.T) {
	assertPanics(t, "length mismatch", func() { WilcoxonSignedRank([]float64{1}, []float64{1, 2}) })
}

// TestPairedTestsRefuseNonFinite: a NaN or an infinity is neither a win,
// a loss nor a tie, so both tests refuse the pairs and say how many
// observations were not finite instead of dropping them as ties.
func TestPairedTestsRefuseNonFinite(t *testing.T) {
	a := []float64{2, 3, math.NaN(), 5, 6, 7}
	b := []float64{1, 2, 3, math.Inf(1), math.NaN(), 6}
	if _, _, _, err := SignTest(a, b); err == nil || !strings.Contains(err.Error(), "3 of 12") {
		t.Errorf("SignTest error = %v, want a refusal naming 3 of 12 observations", err)
	}
	if _, _, err := WilcoxonSignedRank(a, b); err == nil || !strings.Contains(err.Error(), "3 of 12") {
		t.Errorf("WilcoxonSignedRank error = %v, want a refusal naming 3 of 12 observations", err)
	}
	finite := []float64{1, 2, 3, 4, 5, 6}
	if _, _, _, err := SignTest(finite, finite); err != nil {
		t.Errorf("SignTest on finite pairs: %v", err)
	}
}
