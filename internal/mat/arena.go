package mat

// Arena is a bump allocator for the buffers of one unit of work that is
// thrown away as a whole — in this repository, training and scoring one
// cross-validation fold. Floats, Ints and Dense hand out zeroed memory,
// exactly like make, so code produces the same bits with or without one.
// FloatsUnzeroed skips the clear, for a buffer its caller writes whole
// before reading any of it: a network's parameters (the initial draw
// writes them all), its gradient, activations, deltas and weight
// buffers, the minibatch buffers, L-BFGS's direction, base point,
// gradient and curvature pairs, and a fold's row copies. Whatever is
// read before it is written — the momentum velocity, Adam's moments, a
// one-hot target, every Ints — stays zeroed. Reset
// reclaims every hand-out at once; after the first cycle of a given
// shape the arena holds one block of that cycle's total size and later
// cycles allocate nothing.
//
// The nil *Arena is valid and falls back to the heap: Floats, Ints,
// Dense and DenseData then behave as make / NewDense / NewDenseData.
// That lets one code path serve both callers that keep their result
// (nil arena) and callers that score it and move on (pooled arena).
//
// An Arena is not safe for concurrent use. Memory from it must not be
// used after Reset.
type Arena struct {
	floats bump[float64]
	ints   bump[int]
	// heads[:used] are the Dense headers handed out since Reset.
	heads []*Dense
	used  int
}

// bump hands out consecutive slices of one block. A request the block
// cannot hold is served from the heap and counted, so reset can size the
// next block for the whole cycle.
type bump[T any] struct {
	block     []T
	off, need int
}

// take hands out n elements, zeroed when zero is set; a hand-out the
// heap serves is zeroed either way.
func (b *bump[T]) take(n int, zero bool) []T {
	b.need += n
	if n > len(b.block)-b.off {
		return make([]T, n)
	}
	s := b.block[b.off : b.off+n : b.off+n]
	b.off += n
	if zero {
		clear(s)
	}
	return s
}

func (b *bump[T]) reset() {
	if b.need > len(b.block) {
		// An eighth of slack absorbs the row or two by which consecutive
		// folds differ without re-sizing the block every cycle.
		b.block = make([]T, b.need+b.need/8)
	}
	b.off, b.need = 0, 0
}

// Floats returns a zeroed slice of n float64s.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.floats.take(n, true)
}

// FloatsUnzeroed returns n float64s holding whatever an earlier cycle
// left there, for a buffer the caller writes whole before reading it.
// The nil arena returns make's zeroed slice.
func (a *Arena) FloatsUnzeroed(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.floats.take(n, false)
}

// Ints returns a zeroed slice of n ints.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.take(n, true)
}

// Dense returns a rows×cols zero matrix. It panics if rows or cols is
// not positive.
func (a *Arena) Dense(rows, cols int) *Dense {
	if a == nil {
		return NewDense(rows, cols)
	}
	checkDims(rows, cols)
	return a.header(rows, cols, a.floats.take(rows*cols, true))
}

// DenseData wraps data (length rows*cols, row-major) without copying,
// like NewDenseData; only the header comes from the arena.
func (a *Arena) DenseData(rows, cols int, data []float64) *Dense {
	if a == nil {
		return NewDenseData(rows, cols, data)
	}
	checkData(rows, cols, data)
	return a.header(rows, cols, data)
}

func (a *Arena) header(rows, cols int, data []float64) *Dense {
	if a.used == len(a.heads) {
		a.heads = append(a.heads, new(Dense))
	}
	d := a.heads[a.used]
	a.used++
	*d = Dense{rows: rows, cols: cols, data: data}
	return d
}

// Reset reclaims everything handed out so far. The arena keeps one block
// per element type, sized to the largest cycle it has seen.
func (a *Arena) Reset() {
	a.floats.reset()
	a.ints.reset()
	a.used = 0
}
