// Package metrics implements the model-quality and ranking-quality measures
// reported in the paper's evaluation: accuracy and F1 for classification,
// R² for regression (Table IV), and nDCG for configuration-ranking quality
// (Table V, Figures 5–7).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of predictions equal to the true labels.
// It panics on a length mismatch and returns 0 for empty input.
func Accuracy(pred, truth []int) float64 {
	mustSameLen(len(pred), len(truth))
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// ConfusionMatrix returns counts[t][p] = number of instances with true
// class t predicted as class p, over classes 0..numClasses-1.
func ConfusionMatrix(pred, truth []int, numClasses int) [][]int {
	mustSameLen(len(pred), len(truth))
	cm := make([][]int, numClasses)
	for i := range cm {
		cm[i] = make([]int, numClasses)
	}
	for i, p := range pred {
		t := truth[i]
		if t < 0 || t >= numClasses || p < 0 || p >= numClasses {
			panic(fmt.Sprintf("metrics: label out of range: true=%d pred=%d classes=%d", t, p, numClasses))
		}
		cm[t][p]++
	}
	return cm
}

// F1Binary returns the F1 score of the positive class (label 1) for binary
// labels in {0, 1}. Returns 0 when there are no predicted or true positives.
func F1Binary(pred, truth []int) float64 {
	mustSameLen(len(pred), len(truth))
	var tp, fp, fn int
	for i, p := range pred {
		t := truth[i]
		switch {
		case p == 1 && t == 1:
			tp++
		case p == 1 && t == 0:
			fp++
		case p == 0 && t == 1:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	return 2 * precision * recall / (precision + recall)
}

// F1Macro returns the unweighted mean of per-class F1 scores.
// Classes absent from both pred and truth contribute 0.
func F1Macro(pred, truth []int, numClasses int) float64 {
	cm := ConfusionMatrix(pred, truth, numClasses)
	var sum float64
	for c := 0; c < numClasses; c++ {
		tp := cm[c][c]
		var fp, fn int
		for o := 0; o < numClasses; o++ {
			if o == c {
				continue
			}
			fp += cm[o][c]
			fn += cm[c][o]
		}
		if tp == 0 {
			continue
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(tp+fn)
		sum += 2 * precision * recall / (precision + recall)
	}
	return sum / float64(numClasses)
}

// R2 returns the coefficient of determination for regression predictions.
// A constant-truth vector yields 0 (undefined variance).
func R2(pred, truth []float64) float64 {
	mustSameLen(len(pred), len(truth))
	if len(pred) == 0 {
		return 0
	}
	var mean float64
	for _, t := range truth {
		mean += t
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i, t := range truth {
		d := t - pred[i]
		ssRes += d * d
		dm := t - mean
		ssTot += dm * dm
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// NDCG returns the normalized discounted cumulative gain of a predicted
// ranking against true relevances. predScores orders the items (higher is
// better); trueRelevance gives each item's actual quality. This is the
// ranking-quality measure used in the paper's cross-validation experiments:
// items are hyperparameter configurations, predScores are validation scores
// and trueRelevance is the test accuracy achieved with each configuration.
func NDCG(predScores, trueRelevance []float64) float64 {
	return NDCGAt(predScores, trueRelevance, len(predScores))
}

// NDCGAt is NDCG truncated to the top k positions of the predicted ranking.
func NDCGAt(predScores, trueRelevance []float64, k int) float64 {
	mustSameLen(len(predScores), len(trueRelevance))
	n := len(predScores)
	if n == 0 || k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Predicted ranking: by score descending; ties broken by index for
	// determinism.
	sort.SliceStable(order, func(a, b int) bool {
		return predScores[order[a]] > predScores[order[b]]
	})
	dcg := 0.0
	for pos := 0; pos < k; pos++ {
		dcg += gain(trueRelevance[order[pos]]) / discount(pos)
	}
	ideal := append([]float64(nil), trueRelevance...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for pos := 0; pos < k; pos++ {
		idcg += gain(ideal[pos]) / discount(pos)
	}
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func gain(rel float64) float64 { return rel }

func discount(pos int) float64 { return math.Log2(float64(pos) + 2) }

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", a, b))
	}
}
