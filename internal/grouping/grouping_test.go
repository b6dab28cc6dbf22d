package grouping

import (
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

func TestGenGroupsCoversAllInstances(t *testing.T) {
	// 3 clusters, 3 categories as in the paper's Figure 2(c).
	clusterOf := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2}
	catOf := []int{0, 0, 1, 1, 1, 2, 2, 2, 0, 2, 0, 1}
	assign := GenGroups(clusterOf, 3, catOf, 3, 1)
	if len(assign) != len(clusterOf) {
		t.Fatalf("assign length %d", len(assign))
	}
	for i, g := range assign {
		if g < 0 || g >= 3 {
			t.Fatalf("instance %d unassigned or out of range: %d", i, g)
		}
	}
}

func TestGenGroupsTopClassClaimsCluster(t *testing.T) {
	// Cluster 0 dominated by category 0; those instances must land in
	// group 0 via stage 1.
	clusterOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	catOf := []int{0, 0, 0, 1, 1, 1, 1, 0}
	assign := GenGroups(clusterOf, 2, catOf, 2, 1)
	for i := 0; i < 3; i++ {
		if assign[i] != 0 {
			t.Fatalf("dominant-category instance %d assigned to group %d", i, assign[i])
		}
	}
	for i := 4; i < 7; i++ {
		if assign[i] != 1 {
			t.Fatalf("dominant-category instance %d assigned to group %d", i, assign[i])
		}
	}
}

func TestGenGroupsRemainderFollowsStrongestCluster(t *testing.T) {
	// Category 1 is strongest in cluster 1: the stray category-1 instance
	// sitting in cluster 0 must be pulled to group 1 in stage 2 (top-1
	// claims category 0 for cluster 0, category 1 for cluster 1).
	clusterOf := []int{0, 0, 0, 0, 1, 1, 1, 0}
	catOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	assign := GenGroups(clusterOf, 2, catOf, 2, 1)
	if assign[7] != 1 {
		t.Fatalf("stray instance assigned to %d, want 1", assign[7])
	}
}

func TestGenGroupsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	GenGroups([]int{0, 1}, 2, []int{0}, 1, 1)
}

func clusteredDataset(seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	n := 240
	x := mat.NewDense(n, 3)
	class := make([]int, n)
	for i := 0; i < n; i++ {
		// Two feature blobs; labels correlated with blobs but noisy.
		blob := i % 2
		for j := 0; j < 3; j++ {
			center := -4.0
			if blob == 1 {
				center = 4.0
			}
			x.Set(i, j, center+r.Norm())
		}
		class[i] = blob
		if r.Float64() < 0.2 {
			class[i] = 1 - blob
		}
	}
	return &dataset.Dataset{Name: "grp", Kind: dataset.Classification, X: x, Class: class, NumClasses: 2}
}

func TestBuildProducesValidGroups(t *testing.T) {
	d := clusteredDataset(1)
	g, err := Build(d, Options{V: 2}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if g.V != 2 {
		t.Fatalf("V = %d", g.V)
	}
	if len(g.Assign) != d.Len() {
		t.Fatalf("assign covers %d of %d", len(g.Assign), d.Len())
	}
	total := 0
	for gi := 0; gi < g.V; gi++ {
		total += len(g.Members[gi])
		if len(g.Members[gi]) == 0 {
			t.Fatalf("group %d empty", gi)
		}
	}
	if total != d.Len() {
		t.Fatalf("groups partition %d of %d", total, d.Len())
	}
	// Members consistent with Assign.
	for gi, members := range g.Members {
		for _, idx := range members {
			if g.Assign[idx] != gi {
				t.Fatalf("member %d of group %d has assign %d", idx, gi, g.Assign[idx])
			}
		}
	}
	if len(g.FeatureCluster) != d.Len() || len(g.LabelCategory) != d.Len() {
		t.Fatal("per-instance metadata missing")
	}
}

func TestBuildGroupsAlignWithFeatureBlobs(t *testing.T) {
	d := clusteredDataset(3)
	g, err := Build(d, Options{V: 2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// The two feature blobs are far apart; groups should essentially follow
	// them. Count agreement up to label permutation.
	agree := 0
	for i := 0; i < d.Len(); i++ {
		blob := i % 2
		if g.Assign[i] == blob {
			agree++
		}
	}
	frac := float64(agree) / float64(d.Len())
	if frac < 0.5 {
		frac = 1 - frac
	}
	// Labels carry 20% noise and stage 2 reassigns whole categories, so
	// alignment is high but not perfect.
	if frac < 0.75 {
		t.Fatalf("groups align with blobs only %v", frac)
	}
}

func TestBuildRegression(t *testing.T) {
	r := rng.New(5)
	n := 120
	x := mat.NewDense(n, 2)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Norm())
		x.Set(i, 1, r.Norm())
		target[i] = x.At(i, 0) * 3
	}
	d := &dataset.Dataset{Name: "reg", Kind: dataset.Regression, X: x, Target: target}
	g, err := Build(d, Options{V: 3, RegressionBins: 3}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCategories != 3 {
		t.Fatalf("regression categories = %d", g.NumCategories)
	}
	if g.V != 3 {
		t.Fatalf("V = %d", g.V)
	}
}

func TestBuildWithElbow(t *testing.T) {
	d := clusteredDataset(7)
	g, err := Build(d, Options{UseElbow: true}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if g.V < 2 || g.V > 5 {
		t.Fatalf("elbow V = %d out of [2,5]", g.V)
	}
}

func TestBuildErrors(t *testing.T) {
	d := clusteredDataset(9)
	if _, err := Build(d, Options{V: d.Len() + 1}, rng.New(1)); err == nil {
		t.Error("v>n accepted")
	}
	bad := clusteredDataset(10)
	bad.Class = bad.Class[:5]
	if _, err := Build(bad, Options{V: 2}, rng.New(1)); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	d := clusteredDataset(11)
	g1, err := Build(d, Options{V: 2}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(d, Options{V: 2}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Assign {
		if g1.Assign[i] != g2.Assign[i] {
			t.Fatal("same seed produced different groups")
		}
	}
}
