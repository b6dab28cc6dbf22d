package mat

import "testing"

func TestArenaNilIsHeap(t *testing.T) {
	var a *Arena
	if got := a.Floats(3); len(got) != 3 {
		t.Fatalf("Floats len %d", len(got))
	}
	if got := a.Ints(2); len(got) != 2 {
		t.Fatalf("Ints len %d", len(got))
	}
	if r, c := a.Dense(2, 5).Dims(); r != 2 || c != 5 {
		t.Fatalf("Dense dims %dx%d", r, c)
	}
	data := []float64{1, 2, 3, 4}
	if d := a.DenseData(2, 2, data); &d.Data()[0] != &data[0] {
		t.Fatal("DenseData copied")
	}
}

// TestArenaReuseIsZeroedAndAllocationFree: a second cycle of the same
// shape reuses the first cycle's memory, hands it out zeroed, and
// allocates nothing — also after a larger and then a smaller cycle.
func TestArenaReuseIsZeroedAndAllocationFree(t *testing.T) {
	a := new(Arena)
	cycle := func(n int) {
		a.Reset()
		f := a.Floats(n)
		i := a.Ints(n / 2)
		d := a.Dense(3, n)
		v := a.DenseData(1, n, f)
		for _, s := range [][]float64{f, d.Data()} {
			for k, x := range s {
				if x != 0 {
					t.Fatalf("stale float %v at %d", x, k)
				}
				s[k] = 7
			}
		}
		for k, x := range i {
			if x != 0 {
				t.Fatalf("stale int %v at %d", x, k)
			}
			i[k] = 7
		}
		if v.At(0, n-1) != 7 {
			t.Fatal("DenseData is not a view")
		}
	}
	for _, n := range []int{40, 400, 40} {
		cycle(n) // cold: served from the heap, counted
		cycle(n) // sizes the block on Reset
		if allocs := testing.AllocsPerRun(3, func() { cycle(n) }); allocs != 0 {
			t.Errorf("n=%d: warm cycle allocated %v objects, want 0", n, allocs)
		}
	}
	// The block is the high-water cycle (4n floats + slack), not the sum.
	if got, most := len(a.floats.block), 4*400*9/8; got > most {
		t.Errorf("arena retains %d floats, want <= %d", got, most)
	}
}

func TestArenaHandOutsDoNotOverlap(t *testing.T) {
	a := new(Arena)
	for pass := 0; pass < 2; pass++ {
		a.Reset()
		x, y := a.Floats(4), a.Floats(4)
		x = append(x, 1) // must not grow into y
		if y[0] != 0 {
			t.Fatal("append to one hand-out wrote into the next")
		}
		_ = x
	}
}

func TestArenaDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on 0 rows")
		}
	}()
	new(Arena).Dense(0, 3)
}
