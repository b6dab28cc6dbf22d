package hpo

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
)

// lender is a CVEvaluator.Spare with a policy and a ledger: grant decides
// each ask from its ordinal and the number of cores currently out, and
// every way a borrower could misuse a giveBack ends up in misuse.
type lender struct {
	grant func(ask, out int) bool

	mu             sync.Mutex
	asks, out      int
	issued, misuse int
}

func (l *lender) spare() func() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asks++
	if !l.grant(l.asks, l.out) {
		return nil
	}
	l.issued++
	l.out++
	returned := false
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if returned || l.out == 0 {
			l.misuse++
		}
		returned = true
		l.out--
	}
}

// settled reports what the ledger shows once every Evaluate has returned.
func (l *lender) settled(t *testing.T, name string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out != 0 || l.misuse != 0 {
		t.Errorf("%s: %d of %d lent cores never came back, %d returned twice or unissued", name, l.out, l.issued, l.misuse)
	}
}

var lenders = []struct {
	name  string
	grant func(ask, out int) bool
	lends bool // must have lent at least one fold of a five-fold evaluation
}{
	{"never", func(int, int) bool { return false }, false},
	{"always", func(int, int) bool { return true }, true},
	{"every-second-ask", func(ask, _ int) bool { return ask%2 == 0 }, true},
	{"one-token", func(_, out int) bool { return out == 0 }, true},
	{"two-then-refuses", func(ask, _ int) bool { return ask <= 2 }, true},
}

// emptyVal hands on its builder's folds with one fold's validation rows
// removed. The real builders floor the subset at 2·K rows, so no budget is
// small enough to leave a fold unusable; this is how the skip rule is
// reached.
type emptyVal struct {
	cv.Builder
	fold int
}

func (b emptyVal) Folds(d *dataset.Dataset, g *grouping.Groups, budget, k int, r *rng.RNG) ([]cv.Fold, error) {
	folds, err := b.Builder.Folds(d, g, budget, k, r)
	if err == nil {
		folds[b.fold].Val = nil
	}
	return folds, err
}

// TestEvaluateLentFoldsBitwise: whatever Spare grants, refuses or grants
// to two evaluations at once, Evaluate returns the scores of the serial
// loop bit for bit — also past a skipped fold — and every lent core comes
// back exactly once.
func TestEvaluateLentFoldsBitwise(t *testing.T) {
	base := nn.DefaultConfig()
	base.MaxIter = 6
	// A regression target: fold scores are R² values with a full mantissa,
	// where the separable toy classes would score 1 on every fold.
	train := tinyRegression(160, 3)
	enhanced, err := EnhancedComponents(train, EnhancedOptions{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, comps := range []struct {
		name string
		c    Components
	}{{"vanilla", VanillaComponents(5)}, {"enhanced", enhanced}} {
		for _, skip := range []int{-1, 2} {
			c, wantScores := comps.c, comps.c.K
			if skip >= 0 {
				c.Folds = emptyVal{c.Folds, skip}
				wantScores--
			}
			serial := NewCVEvaluator(train, base, c)
			for _, solver := range []nn.Solver{nn.SGD, nn.Adam, nn.LBFGS} {
				cfg := solverConfig(t, 3, solver, false)
				// Two evaluations, so the one-token lender has two
				// borrowers at once.
				budgets := []int{60, 120}
				want := make([][]float64, len(budgets))
				for i, budget := range budgets {
					if want[i], err = serial.Evaluate(cfg, budget, rng.New(uint64(i)+5)); err != nil {
						t.Fatal(err)
					}
					if len(want[i]) != wantScores || want[i][0] == want[i][1] {
						t.Fatalf("serial evaluation scored %v, want %d scores that tell folds apart", want[i], wantScores)
					}
				}
				for _, ln := range lenders {
					name := fmt.Sprintf("%s/skip%d/%s/%s", comps.name, skip, solver, ln.name)
					l := &lender{grant: ln.grant}
					ev := NewCVEvaluator(train, base, c)
					ev.Spare = l.spare
					var wg sync.WaitGroup
					for i, budget := range budgets {
						wg.Add(1)
						go func() {
							defer wg.Done()
							got, err := ev.Evaluate(cfg, budget, rng.New(uint64(i)+5))
							if err != nil {
								t.Errorf("%s: %v", name, err)
							} else if !sameBits(got, want[i]) {
								t.Errorf("%s budget %d: lent %v, serial %v", name, budget, got, want[i])
							}
						}()
					}
					wg.Wait()
					l.settled(t, name)
					if ln.lends && l.issued == 0 {
						t.Errorf("%s: no fold was lent, the case tested nothing", name)
					}
				}
			}
		}
	}
}

// poisoned hands on its builder's folds over the rows of clean, then puts
// the given row first in the named folds' training rows — a row that only
// the evaluator's own, one row longer, dataset has (a label out of range:
// that fold's fit returns an error) or that no dataset has (selecting it
// panics).
type poisoned struct {
	cv.Builder
	clean *dataset.Dataset
	rows  map[int]int // fold → row
}

func (b poisoned) Folds(_ *dataset.Dataset, g *grouping.Groups, budget, k int, r *rng.RNG) ([]cv.Fold, error) {
	folds, err := b.Builder.Folds(b.clean, g, budget, k, r)
	if err == nil {
		for fold, row := range b.rows {
			folds[fold].Train[0] = row
		}
	}
	return folds, err
}

// TestEvaluateLentFoldFaults: a fold that fails on a borrowed core fails
// the evaluation exactly as it would have in the serial loop. The lowest
// failing fold decides — its error is returned, its panic surfaces on the
// goroutine that called Evaluate, where a recover can reach it — and by
// then every lent core is back and every goroutine Evaluate started has
// ended.
func TestEvaluateLentFoldFaults(t *testing.T) {
	base := nn.DefaultConfig()
	base.MaxIter = 4
	const n = 160
	train := tinyDataset(n+1, 3)
	train.Class[n] = train.NumClasses // row n: a label no fit accepts
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	clean := train.Select(rows)
	const badLabel, noSuchRow = n, n + 1
	cfg := solverConfig(t, 3, nn.Adam, false)

	for _, tc := range []struct {
		name   string
		rows   map[int]int
		panics bool
		want   string
	}{
		{"panic-fold1", map[int]int{1: noSuchRow}, true, "out of range"},
		{"panic-fold4", map[int]int{4: noSuchRow}, true, "out of range"},
		{"errors-fold1-fold3", map[int]int{1: badLabel, 3: badLabel}, false, "training fold 1:"},
		{"error-fold1-panic-fold3", map[int]int{1: badLabel, 3: noSuchRow}, false, "training fold 1:"},
		{"panic-fold2-error-fold3", map[int]int{2: noSuchRow, 3: badLabel}, true, "out of range"},
	} {
		for _, ln := range lenders {
			name := tc.name + "/" + ln.name
			comps := VanillaComponents(5)
			comps.Folds = poisoned{comps.Folds, clean, tc.rows}
			l := &lender{grant: ln.grant}
			ev := NewCVEvaluator(train, base, comps)
			ev.Spare = l.spare
			before := runtime.NumGoroutine()
			var err error
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				_, err = ev.Evaluate(cfg, 100, rng.New(7))
			}()
			// Nothing is waited for here: when Evaluate is over, by return
			// or by panic, so are its folds.
			l.settled(t, name)
			switch {
			case tc.panics && (panicked == nil || !strings.Contains(fmt.Sprint(panicked), tc.want)):
				t.Errorf("%s: recovered %v (error %v), want a panic mentioning %q", name, panicked, err, tc.want)
			case !tc.panics && (panicked != nil || err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s: error %v, panic %v, want an error mentioning %q", name, err, panicked, tc.want)
			}
			// A lent fold's goroutine is past its last statement when
			// Evaluate returns but may not have left the scheduler yet.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s: %d goroutines before Evaluate, %d after", name, before, after)
			}
		}
	}
}
