// Package tensor is the numeric kernel layer under internal/model: the
// float32 matrix kernels the autodiff tape, the batched trainer, and the
// Stage 3 incremental decoder all share, the bit-exact exp and GELU
// kernels of the float32 softmax and feed-forward (transc.go), plus the
// grow-only arena that backs resettable tapes and the fused
// softmax+cross-entropy.
//
// Determinism contract. Every kernel computes each output element by
// adding its terms in ascending-k order, one float32 rounding per added
// term, and skips a term exactly when its left operand is zero — the
// same per-element semantics as a naive triple loop with a zero-skip.
// The vector row kernel keeps each lane's running sum in a register for
// the whole k loop, adding the same terms in the same order, and the
// row-parallel dispatch only partitions *disjoint* output rows, so
// results are bit-identical to the naive reference for any worker
// count. kernels_test.go enforces this with differential and property
// tests; keep any new kernel inside the same contract, because the
// Stage 3 cache (internal/model/kvcache.go) and the training tape must
// keep producing identical floats.
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the kernel parallelism knob, read atomically on every
// dispatch so tests and callers can retune it at runtime.
var workers atomic.Int32

func init() { workers.Store(int32(runtime.GOMAXPROCS(0))) }

// Workers reports the current kernel worker bound.
func Workers() int { return int(workers.Load()) }

// SetWorkers bounds how many goroutines a single kernel call may fan out
// to. n < 1 restores the default (GOMAXPROCS). Results are bit-identical
// for any value; the knob only trades latency for CPU.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workers.Store(int32(n))
}

// parFlops gates the parallel dispatch: kernels below this many
// multiply-adds run serially, since goroutine handoff costs more than
// the work (Stage 3's per-step rows stay serial, training's batched
// matmuls fan out).
const parFlops = 1 << 21

// parallelRows runs body over [0,r) split into at most Workers()
// contiguous chunks. Output rows are disjoint across chunks, so the
// partitioning never changes results.
func parallelRows(r, flops int, body func(lo, hi int)) {
	w := Workers()
	if w > r {
		w = r
	}
	if w <= 1 || flops < parFlops {
		body(0, r)
		return
	}
	chunk := (r + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < r; lo += chunk {
		hi := min(lo+chunk, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// Axpy computes dst[i] += alpha·src[i]. Lanes are independent and each
// element receives exactly one += (one product rounding, one add
// rounding), so the AVX2 path and the scalar loop produce bit-identical
// results.
func Axpy(dst, src []float32, alpha float32) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= 8 {
		i = len(dst) &^ 7
		axpyAVX2(&dst[0], &src[0], i, alpha)
	}
	for ; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// mulRow accumulates o[j] += Σ_p a[p·lda]·b[p·c+j] for j < c = len(o),
// p < k: one output row of a matmul whose left operand row is strided by
// lda. Each element receives its nonzero terms in ascending p with one
// rounding per product and per add, and a term is skipped exactly when
// a[p·lda] is ±0. With AVX2 the row kernel keeps all but the last c%4
// columns in registers for the whole p loop; the loop below is the
// fallback and finishes those columns.
func mulRow(o, a, b []float32, k, lda int) {
	c := len(o)
	j := 0
	if useAVX2 && c >= 4 && k > 0 {
		_, _ = a[(k-1)*lda], b[k*c-1] // the kernel reads this far
		j = c &^ 3
		matmulRowAVX2(&o[0], &a[0], &b[0], k, c, lda)
	}
	if j == c {
		return
	}
	for p := 0; p < k; p++ {
		if av := a[p*lda]; av != 0 {
			brow := b[p*c : (p+1)*c]
			for q := j; q < c; q++ {
				o[q] += av * brow[q]
			}
		}
	}
}

// MatMul computes out += a·b with a r×k, b k×c (out accumulates; zero it
// for a plain product), one mulRow per output row, so each element
// receives its nonzero terms in ascending-k order with one rounding each
// — bit-identical to the naive kernel. Large shapes fan out over
// disjoint row ranges.
func MatMul(out, a, b []float32, r, k, c int) {
	parallelRows(r, r*k*c, func(lo, hi int) {
		matmulRows(out, a, b, lo, hi, k, c)
	})
}

func matmulRows(out, a, b []float32, lo, hi, k, c int) {
	for i := lo; i < hi; i++ {
		mulRow(out[i*c:(i+1)*c], a[i*k:(i+1)*k], b, k, 1)
	}
}

// ntPool recycles MatMulNT's transpose scratch; the transpose costs k·c
// element copies against the r·k·c multiply-adds it unlocks.
var ntPool sync.Pool

// scratchCap rounds a request up to the next power of two (min 256), so
// nearby shapes share one size class and a pooled buffer keeps serving
// after small size drifts.
func scratchCap(n int) int {
	c := 256
	for c < n {
		c <<= 1
	}
	return c
}

func getScratch(n int) []float32 {
	if v := ntPool.Get(); v != nil {
		if s := v.([]float32); cap(s) >= n {
			return s[:n]
		}
		// Undersized for this call, still useful for the next small
		// one: return it instead of letting it fall to the collector.
		ntPool.Put(v)
	}
	return make([]float32, n, scratchCap(n))
}

// MatMulNT computes dst += a·bᵀ with a r×k, b c×k, dst r×c. It
// materializes bᵀ into pooled scratch and runs the blocked MatMul
// kernel, so every output element gets its nonzero terms in ascending-k
// order with one rounding each (and the zero-skip on a's values), via
// the vectorized row update instead of scalar dot products.
func MatMulNT(dst, a, b []float32, r, k, c int) {
	bt := getScratch(k * c)
	for j := 0; j < c; j++ {
		row := b[j*k : (j+1)*k]
		for p, v := range row {
			bt[p*c+j] = v
		}
	}
	MatMul(dst, a, bt, r, k, c)
	ntPool.Put(bt) //nolint:staticcheck // slice reuse is the point
}

// tnBlock is MatMulTN's k-tile: each output row's register-resident
// pass covers one tile of b, which stays cache-resident across rows.
const tnBlock = 64

// MatMulTN computes dst += aᵀ·b with a r2×r, b r2×c, dst r×c. The k
// (=r2) dimension is tiled so each tile of b is reused across every dst
// row while it is in cache; within a tile, mulRow reads dst row i's
// left operand as column i of a (stride r), so each element's nonzero
// terms still add in ascending-k order, one rounding each. Parallel over
// dst rows.
func MatMulTN(dst, a, b []float32, r, r2, c int) {
	parallelRows(r, r*r2*c, func(lo, hi int) {
		for p0 := 0; p0 < r2; p0 += tnBlock {
			p1 := min(p0+tnBlock, r2)
			for i := lo; i < hi; i++ {
				mulRow(dst[i*c:(i+1)*c], a[p0*r+i:], b[p0*c:p1*c], p1-p0, r)
			}
		}
	})
}

// MulRowInto accumulates out[j] += a[p]·b[p*stride+off+j] for j < cols,
// p < rows: one output row of MatMul against a sub-matrix of b. When the
// sub-matrix is the whole of b the row kernel applies; otherwise
// the p-outer loop with the zero-skip runs directly. Either way the
// per-element term order matches MatMul exactly (the Stage 3 decoder
// depends on this for its bit-identity with the tape path).
func MulRowInto(out, a, b []float32, rows, cols, stride, off int) {
	if off == 0 && stride == cols {
		mulRow(out[:cols], a, b, rows, 1)
		return
	}
	for p := 0; p < rows; p++ {
		if av := a[p]; av != 0 {
			Axpy(out, b[p*stride+off:p*stride+off+cols], av)
		}
	}
}

// DotColumns accumulates out[j] += a[p]·b[j*rows+off+p] for j < outer,
// p < cols — a row times the transpose of a sub-matrix of b, in the term
// order MatMul(a, Transpose(b)) produces after materializing the
// transpose (ascending p per element, zero terms skipped). Four output
// lanes share each pass over a.
func DotColumns(out, a, b []float32, outer, rows, off, cols int) {
	a = a[:cols]
	j := 0
	for ; j+4 <= outer; j += 4 {
		r0 := b[j*rows+off:]
		r1 := b[(j+1)*rows+off:]
		r2 := b[(j+2)*rows+off:]
		r3 := b[(j+3)*rows+off:]
		var s0, s1, s2, s3 float32
		for p, av := range a {
			if av == 0 {
				continue
			}
			s0 += av * r0[p]
			s1 += av * r1[p]
			s2 += av * r2[p]
			s3 += av * r3[p]
		}
		out[j] += s0
		out[j+1] += s1
		out[j+2] += s2
		out[j+3] += s3
	}
	for ; j < outer; j++ {
		row := b[j*rows+off:]
		var s float32
		for p, av := range a {
			if av == 0 {
				continue
			}
			s += av * row[p]
		}
		out[j] += s
	}
}
