package mat

import "fmt"

// Grouped ("batched") matmul dispatch: BatchMul and friends run many
// independent dst = a·b triples as one parallel dispatch that partitions
// the *stacked* destination-row space across workers. Each row is still
// computed by the identical sequential row kernel the solo entry points
// use, so every triple's result is bitwise-identical to a solo
// Mul/MulT/TMul at any worker count. The only caller left is
// nn.FitBatch, itself kept only for the frozen benchmark in bench/.
//
// The value of grouping is dispatch, not arithmetic: T small per-trial
// matmuls that individually sit below parallelMinFlops (and so run
// sequentially) sum to one dispatch that crosses the threshold and
// spreads across cores, and T goroutine fork/joins collapse into one.
// Shapes may differ between triples; the row partition is row-count
// balanced, which is near-optimal for same-architecture groups.

// BatchMul computes dsts[t] = as[t]*bs[t] for every triple. Slices must
// have equal length; each triple is shape-checked like Mul.
func BatchMul(dsts, as, bs []*Dense) { BatchMulWorkers(dsts, as, bs, 0) }

// BatchMulWorkers is BatchMul with an explicit worker cap
// (0 = GOMAXPROCS, 1 = fully sequential). Bitwise-identical results for
// any worker count and any grouping of the same triples.
func BatchMulWorkers(dsts, as, bs []*Dense, workers int) {
	batchCheckLen(len(dsts), len(as), len(bs))
	if len(dsts) == 0 {
		return
	}
	kind := KernelKind(activeKernel.Load())
	totalRows, totalFlops := 0, 0
	for t := range dsts {
		checkMul(dsts[t], as[t], bs[t])
		totalRows += as[t].rows
		totalFlops += as[t].rows * as[t].cols * bs[t].cols
	}
	if kind == NaiveKernel {
		for t := range dsts {
			naiveMul(dsts[t], as[t], bs[t])
		}
		return
	}
	batchDispatch(dsts, as, bs, mulRangeKernel(kind), batchRowsA, totalRows, totalFlops, workers)
}

// BatchMulT computes dsts[t] = as[t] * bs[t]ᵀ for every triple.
func BatchMulT(dsts, as, bs []*Dense) { BatchMulTWorkers(dsts, as, bs, 0) }

// BatchMulTWorkers is BatchMulT with an explicit worker cap.
func BatchMulTWorkers(dsts, as, bs []*Dense, workers int) {
	batchCheckLen(len(dsts), len(as), len(bs))
	if len(dsts) == 0 {
		return
	}
	kind := KernelKind(activeKernel.Load())
	totalRows, totalFlops := 0, 0
	for t := range dsts {
		checkMulT(dsts[t], as[t], bs[t])
		totalRows += as[t].rows
		totalFlops += as[t].rows * as[t].cols * bs[t].rows
	}
	if kind == NaiveKernel {
		for t := range dsts {
			naiveMulT(dsts[t], as[t], bs[t])
		}
		return
	}
	batchDispatch(dsts, as, bs, mulTRangeKernel(kind), batchRowsA, totalRows, totalFlops, workers)
}

// BatchTMul computes dsts[t] = as[t]ᵀ * bs[t] for every triple.
func BatchTMul(dsts, as, bs []*Dense) { BatchTMulWorkers(dsts, as, bs, 0) }

// BatchTMulWorkers is BatchTMul with an explicit worker cap.
func BatchTMulWorkers(dsts, as, bs []*Dense, workers int) {
	batchCheckLen(len(dsts), len(as), len(bs))
	if len(dsts) == 0 {
		return
	}
	kind := KernelKind(activeKernel.Load())
	totalRows, totalFlops := 0, 0
	for t := range dsts {
		checkTMul(dsts[t], as[t], bs[t])
		totalRows += as[t].cols // dst rows of aᵀ·b = a.cols
		totalFlops += as[t].rows * as[t].cols * bs[t].cols
	}
	if kind == NaiveKernel {
		for t := range dsts {
			naiveTMul(dsts[t], as[t], bs[t])
		}
		return
	}
	batchDispatch(dsts, as, bs, tMulRangeKernel(kind), batchRowsAT, totalRows, totalFlops, workers)
}

func batchCheckLen(d, a, b int) {
	if d != a || d != b {
		panic(fmt.Sprintf("mat: batch length mismatch dsts=%d as=%d bs=%d", d, a, b))
	}
}

// batchRowsA / batchRowsAT report triple t's destination-row count for
// the two partition geometries (rows of a, or columns of a for the
// transposed-left case).
func batchRowsA(a *Dense) int  { return a.rows }
func batchRowsAT(a *Dense) int { return a.cols }

// batchDispatch partitions the stacked destination-row space
// [0, totalRows) across workers and maps every global chunk back onto
// per-triple row ranges of the given range kernel. A chunk never splits
// a row, and each row is computed exactly as in the solo path.
func batchDispatch(dsts, as, bs []*Dense, f rangeKernel, rowsOf func(*Dense) int, totalRows, totalFlops, workers int) {
	w := resolveWorkers(workers, totalRows, totalFlops)
	if w <= 1 {
		for t := range dsts {
			f(dsts[t], as[t], bs[t], 0, rowsOf(as[t]))
		}
		return
	}
	partitionRows(totalRows, w, func(g0, g1 int) {
		off := 0
		for t := range dsts {
			rows := rowsOf(as[t])
			lo, hi := g0-off, g1-off
			if lo < 0 {
				lo = 0
			}
			if hi > rows {
				hi = rows
			}
			if lo < hi {
				f(dsts[t], as[t], bs[t], lo, hi)
			}
			off += rows
			if off >= g1 {
				break
			}
		}
	})
}
