package cluster

import (
	"testing"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// blobs builds k well-separated Gaussian blobs of the given size.
func blobs(k, perCluster, dims int, sep float64, seed uint64) (*mat.Dense, []int) {
	r := rng.New(seed)
	n := k * perCluster
	x := mat.NewDense(n, dims)
	truth := make([]int, n)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dims)
		for j := range centers[c] {
			centers[c][j] = r.NormScaled(0, sep)
		}
	}
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		row := x.Row(i)
		for j := 0; j < dims; j++ {
			row[j] = centers[c][j] + r.Norm()*0.3
		}
	}
	return x, truth
}

// clusterPurity computes the fraction of points whose cluster's majority
// true label matches their own true label.
func clusterPurity(assign, truth []int, k, classes int) float64 {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, classes)
	}
	for i, a := range assign {
		counts[a][truth[i]]++
	}
	correct := 0
	for _, row := range counts {
		best := 0
		for _, c := range row {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}

func TestKMeansRecoversBlobs(t *testing.T) {
	x, truth := blobs(3, 60, 4, 8, 1)
	res, err := KMeans(x, KMeansOptions{K: 3, MaxIters: 20}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 {
		t.Fatalf("K = %d", res.K())
	}
	if p := clusterPurity(res.Assign, truth, 3, 3); p < 0.95 {
		t.Fatalf("purity %v < 0.95", p)
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia %v", res.Inertia)
	}
}

func TestKMeansAssignmentsInRange(t *testing.T) {
	x, _ := blobs(2, 30, 3, 5, 3)
	res, err := KMeans(x, KMeansOptions{K: 4}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != x.Rows() {
		t.Fatalf("sizes sum %d != n %d", total, x.Rows())
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 4 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	x, _ := blobs(2, 5, 2, 5, 5)
	if _, err := KMeans(x, KMeansOptions{K: 0}, rng.New(1)); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := KMeans(x, KMeansOptions{K: 100}, rng.New(1)); err == nil {
		t.Error("K>n accepted")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	x, _ := blobs(2, 3, 2, 5, 6)
	res, err := KMeans(x, KMeansOptions{K: x.Rows()}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-6 {
		t.Fatalf("k=n inertia %v should be ~0", res.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	x, _ := blobs(3, 40, 4, 6, 8)
	r1, err := KMeans(x, KMeansOptions{K: 3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KMeans(x, KMeansOptions{K: 3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestKMeansMiniBatch(t *testing.T) {
	x, truth := blobs(3, 100, 4, 8, 10)
	res, err := KMeans(x, KMeansOptions{K: 3, MaxIters: 15, MiniBatch: 50}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if p := clusterPurity(res.Assign, truth, 3, 3); p < 0.9 {
		t.Fatalf("mini-batch purity %v < 0.9", p)
	}
}

func TestBalancedKMeansEnforcesMinSize(t *testing.T) {
	// Two big blobs plus a handful of outliers: plain k-means with k=3 tends
	// to give the outliers their own tiny cluster; balanced re-clustering
	// must avoid badly undersized clusters.
	r := rng.New(12)
	n := 210
	x := mat.NewDense(n, 2)
	for i := 0; i < 100; i++ {
		x.Set(i, 0, r.NormScaled(-5, 0.4))
		x.Set(i, 1, r.NormScaled(0, 0.4))
	}
	for i := 100; i < 200; i++ {
		x.Set(i, 0, r.NormScaled(5, 0.4))
		x.Set(i, 1, r.NormScaled(0, 0.4))
	}
	for i := 200; i < n; i++ {
		x.Set(i, 0, r.NormScaled(0, 0.2))
		x.Set(i, 1, r.NormScaled(40, 0.2))
	}
	res, err := BalancedKMeans(x, BalancedOptions{K: 2, RGroup: 0.8}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Sizes()
	minSize := 0.8 * float64(n) / 2 * 0.5 // generous slack: outliers re-attach at the end
	for k, s := range sizes {
		if float64(s) < minSize {
			t.Fatalf("cluster %d size %d below balanced floor", k, s)
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != n {
		t.Fatalf("balanced assignment covers %d of %d", total, n)
	}
}

func TestBalancedKMeansErrors(t *testing.T) {
	x, _ := blobs(2, 5, 2, 5, 14)
	if _, err := BalancedKMeans(x, BalancedOptions{K: 0}, rng.New(1)); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := BalancedKMeans(x, BalancedOptions{K: 100}, rng.New(1)); err == nil {
		t.Error("K>n accepted")
	}
}

func TestElbowFindsBlobCount(t *testing.T) {
	x, _ := blobs(3, 80, 3, 10, 15)
	k, err := Elbow(x, 1, 6, KMeansOptions{MaxIters: 15}, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if k < 2 || k > 4 {
		t.Fatalf("elbow picked k=%d for 3 blobs", k)
	}
}

func TestElbowErrors(t *testing.T) {
	x, _ := blobs(2, 5, 2, 5, 17)
	if _, err := Elbow(x, 0, 3, KMeansOptions{}, rng.New(1)); err == nil {
		t.Error("kMin=0 accepted")
	}
	if _, err := Elbow(x, 3, 2, KMeansOptions{}, rng.New(1)); err == nil {
		t.Error("kMax<kMin accepted")
	}
	k, err := Elbow(x, 2, 2, KMeansOptions{}, rng.New(1))
	if err != nil || k != 2 {
		t.Fatalf("degenerate range: k=%d err=%v", k, err)
	}
}
