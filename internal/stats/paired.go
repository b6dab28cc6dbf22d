package stats

import (
	"fmt"
	"math"
	"sort"
)

// Paired significance tests used to judge whether the enhanced variants'
// wins across datasets (Table IV) are systematic rather than luck.

// checkFinite refuses paired observations that hold a NaN or an
// infinity: such a pair is neither a win, a loss nor a tie, so no test
// statistic over the pairs would mean what it says.
func checkFinite(a, b []float64) error {
	bad := 0
	for i := range a {
		if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
			bad++
		}
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d paired observations are not finite", bad, 2*len(a))
	}
	return nil
}

// SignTest performs a two-sided sign test on paired observations: ties are
// discarded and the p-value is the probability, under a fair coin, of a
// win count at least as extreme as observed. It returns the number of
// wins for a (a > b), for b, and the p-value. With no non-tied pairs the
// p-value is 1. It returns an error, and no counts, when an observation
// is not finite.
func SignTest(a, b []float64) (winsA, winsB int, pValue float64, err error) {
	if len(a) != len(b) {
		panic("stats: SignTest length mismatch")
	}
	if err := checkFinite(a, b); err != nil {
		return 0, 0, 0, err
	}
	for i := range a {
		switch {
		case a[i] > b[i]:
			winsA++
		case a[i] < b[i]:
			winsB++
		}
	}
	n := winsA + winsB
	if n == 0 {
		return winsA, winsB, 1, nil
	}
	k := winsA
	if winsB > winsA {
		k = winsB
	}
	// Two-sided: P[X >= k] + P[X <= n-k] for X ~ Binomial(n, 1/2).
	var tail float64
	for i := k; i <= n; i++ {
		tail += BinomialPMF(i, n, 0.5)
	}
	p := 2 * tail
	if k*2 == n {
		p = 1
	}
	if p > 1 {
		p = 1
	}
	return winsA, winsB, p, nil
}

// WilcoxonSignedRank performs the two-sided Wilcoxon signed-rank test on
// paired observations using the normal approximation with tie correction.
// Zero differences are discarded. It returns the smaller rank sum W and
// the approximate p-value; with fewer than 5 usable pairs the exact
// distribution is so coarse that the function returns p = 1 (no evidence).
// It returns an error when an observation is not finite.
func WilcoxonSignedRank(a, b []float64) (w float64, pValue float64, err error) {
	if len(a) != len(b) {
		panic("stats: WilcoxonSignedRank length mismatch")
	}
	if err := checkFinite(a, b); err != nil {
		return 0, 0, err
	}
	type pair struct {
		abs float64
		pos bool
	}
	var pairs []pair
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		pairs = append(pairs, pair{abs: math.Abs(d), pos: d > 0})
	}
	n := len(pairs)
	if n < 5 {
		return 0, 1, nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].abs < pairs[j].abs })
	// Average ranks for ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && pairs[j+1].abs == pairs[i].abs {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[k] = avg
		}
		i = j + 1
	}
	var wPlus, wMinus float64
	for i, p := range pairs {
		if p.pos {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	w = wPlus
	if wMinus < wPlus {
		w = wMinus
	}
	nf := float64(n)
	mean := nf * (nf + 1) / 4
	variance := nf * (nf + 1) * (2*nf + 1) / 24
	if variance == 0 {
		return w, 1, nil
	}
	z := (w - mean) / math.Sqrt(variance)
	// Two-sided normal tail.
	p := math.Erfc(math.Abs(z) / math.Sqrt2)
	if p > 1 {
		p = 1
	}
	return w, p, nil
}
