// Package cluster implements the feature-clustering substrate behind the
// paper's instance grouping (§III-A): k-means with k-means++ seeding, the
// balanced re-clustering loop that drops undersized clusters (controlled by
// the r_group ratio), a mini-batch path for very large datasets (§III-E)
// and an elbow heuristic for choosing the cluster count.
package cluster

import (
	"fmt"
	"math"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// KMeansOptions configure a k-means run.
type KMeansOptions struct {
	// K is the number of clusters. Must be >= 1.
	K int
	// MaxIters bounds the Lloyd iterations. The paper notes k-means
	// "defaults to 10" iterations in its time analysis; 0 selects that
	// default.
	MaxIters int
	// Tol stops early when the total center movement falls below it.
	Tol float64
	// MiniBatch, when positive, fits centers on mini-batches of that size
	// instead of full passes, trading accuracy for memory/time as the paper
	// suggests for huge datasets. Final assignment is still exact.
	MiniBatch int
}

func (o KMeansOptions) withDefaults() KMeansOptions {
	if o.MaxIters <= 0 {
		o.MaxIters = 10
	}
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	return o
}

// Result holds a clustering outcome.
type Result struct {
	// Assign[i] is the cluster of row i, in [0, K).
	Assign []int
	// Centers[k] is the centroid of cluster k.
	Centers [][]float64
	// Inertia is the total within-cluster squared distance.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centers) }

// Sizes returns the number of points per cluster.
func (r *Result) Sizes() []int {
	s := make([]int, len(r.Centers))
	for _, a := range r.Assign {
		s[a]++
	}
	return s
}

// KMeans clusters the rows of x into opts.K clusters.
func KMeans(x *mat.Dense, opts KMeansOptions, r *rng.RNG) (*Result, error) {
	opts = opts.withDefaults()
	n, f := x.Dims()
	if opts.K < 1 {
		return nil, fmt.Errorf("cluster: k=%d < 1", opts.K)
	}
	if opts.K > n {
		return nil, fmt.Errorf("cluster: k=%d > n=%d", opts.K, n)
	}
	centers := plusPlusInit(x, opts.K, r)
	assign := make([]int, n)
	counts := make([]int, opts.K)
	newCenters := make([][]float64, opts.K)
	for k := range newCenters {
		newCenters[k] = make([]float64, f)
	}
	var iters int
	for iters = 0; iters < opts.MaxIters; iters++ {
		if opts.MiniBatch > 0 && opts.MiniBatch < n {
			miniBatchStep(x, centers, opts.MiniBatch, r)
			continue
		}
		// Assignment step.
		for i := 0; i < n; i++ {
			assign[i] = nearest(x.Row(i), centers)
		}
		// Update step.
		for k := range newCenters {
			for j := range newCenters[k] {
				newCenters[k][j] = 0
			}
			counts[k] = 0
		}
		for i := 0; i < n; i++ {
			k := assign[i]
			counts[k]++
			mat.Axpy(1, x.Row(i), newCenters[k])
		}
		var moved float64
		for k := range newCenters {
			if counts[k] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// center to keep K clusters alive.
				far := farthestPoint(x, centers)
				copy(newCenters[k], x.Row(far))
			} else {
				mat.Scale(1/float64(counts[k]), newCenters[k])
			}
			moved += math.Sqrt(mat.SqDist(centers[k], newCenters[k]))
			copy(centers[k], newCenters[k])
		}
		if moved < opts.Tol {
			iters++
			break
		}
	}
	// Final exact assignment (covers the mini-batch path too).
	var inertia float64
	for i := 0; i < n; i++ {
		k := nearest(x.Row(i), centers)
		assign[i] = k
		inertia += mat.SqDist(x.Row(i), centers[k])
	}
	return &Result{Assign: assign, Centers: centers, Inertia: inertia, Iters: iters}, nil
}

// plusPlusInit seeds centers with the k-means++ strategy.
func plusPlusInit(x *mat.Dense, k int, r *rng.RNG) [][]float64 {
	n, f := x.Dims()
	centers := make([][]float64, 0, k)
	first := r.Intn(n)
	c0 := make([]float64, f)
	copy(c0, x.Row(first))
	centers = append(centers, c0)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = mat.SqDist(x.Row(i), c0)
	}
	for len(centers) < k {
		var total float64
		for _, d := range dist {
			total += d
		}
		var next int
		if total <= 0 {
			next = r.Intn(n) // all points coincide with a center
		} else {
			target := r.Float64() * total
			for i, d := range dist {
				target -= d
				if target < 0 {
					next = i
					break
				}
			}
		}
		c := make([]float64, f)
		copy(c, x.Row(next))
		centers = append(centers, c)
		for i := range dist {
			if d := mat.SqDist(x.Row(i), c); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return centers
}

func nearest(p []float64, centers [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for k, c := range centers {
		if d := mat.SqDist(p, c); d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

func farthestPoint(x *mat.Dense, centers [][]float64) int {
	n := x.Rows()
	best, bestD := 0, -1.0
	for i := 0; i < n; i++ {
		d := mat.SqDist(x.Row(i), centers[nearest(x.Row(i), centers)])
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// miniBatchStep performs one mini-batch center update (Sculley-style with
// per-center learning rates folded into a single batch pass).
func miniBatchStep(x *mat.Dense, centers [][]float64, batch int, r *rng.RNG) {
	n := x.Rows()
	idx := r.Sample(n, batch)
	counts := make([]int, len(centers))
	for _, i := range idx {
		row := x.Row(i)
		k := nearest(row, centers)
		counts[k]++
		lr := 1 / float64(counts[k])
		for j := range centers[k] {
			centers[k][j] = (1-lr)*centers[k][j] + lr*row[j]
		}
	}
}

// Elbow selects a cluster count in [kMin, kMax] with the elbow heuristic
// the paper cites (§III-B): it fits k-means for each k and picks the k whose
// inertia curve has the largest distance from the line joining the curve's
// endpoints. Ties and degenerate curves fall back to kMin.
func Elbow(x *mat.Dense, kMin, kMax int, opts KMeansOptions, r *rng.RNG) (int, error) {
	if kMin < 1 || kMax < kMin {
		return 0, fmt.Errorf("cluster: invalid elbow range [%d,%d]", kMin, kMax)
	}
	if kMax > x.Rows() {
		kMax = x.Rows()
	}
	if kMax <= kMin {
		return kMin, nil
	}
	inertias := make([]float64, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		o := opts
		o.K = k
		res, err := KMeans(x, o, r.Split(uint64(k)))
		if err != nil {
			return 0, err
		}
		inertias[k-kMin] = res.Inertia
	}
	// Perpendicular distance from each point to the end-to-end chord.
	x0, y0 := float64(kMin), inertias[0]
	x1, y1 := float64(kMax), inertias[len(inertias)-1]
	dx, dy := x1-x0, y1-y0
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return kMin, nil
	}
	bestK, bestD := kMin, -1.0
	for k := kMin; k <= kMax; k++ {
		px, py := float64(k), inertias[k-kMin]
		d := math.Abs(dy*px-dx*py+x1*y0-y1*x0) / norm
		if d > bestD {
			bestK, bestD = k, d
		}
	}
	return bestK, nil
}
