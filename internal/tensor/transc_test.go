package tensor

import (
	"math"
	"testing"
)

// The references spell out the formulas the kernels must reproduce bit
// for bit, calling math directly.

func refExpSub(v, sub float32) float32 {
	return float32(math.Exp(float64(v - sub)))
}

func refGELU(v float32) float32 {
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(0.7978845608028654*(x+0.044715*x*x*x))))
}

// checkTransc runs both kernels over src (as a whole slice, so the vector
// groups and the scalar tail both see it) and compares every output's
// bits with the reference. It reports the first mismatch and returns
// false, or returns true.
func checkTransc(t testing.TB, src []float32, sub float32) bool {
	t.Helper()
	dst := make([]float32, len(src))
	ExpSubInto(dst, src, sub)
	for i, v := range src {
		if want := refExpSub(v, sub); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Errorf("ExpSubInto(%v (bits %#x), sub %v) = %v (bits %#x), want %v (bits %#x)",
				v, math.Float32bits(v), sub, dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
			return false
		}
	}
	copy(dst, src)
	GELUInPlace(dst)
	for i, v := range src {
		if want := refGELU(v); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Errorf("GELUInPlace(%v (bits %#x)) = %v (bits %#x), want %v (bits %#x)",
				v, math.Float32bits(v), dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
			return false
		}
	}
	return true
}

// sweepBits checks every float32 bit pattern lo + m·stride < hi, in
// batches, and stops at the first mismatch.
func sweepBits(t testing.TB, lo, hi, stride uint64) {
	t.Helper()
	const batch = 4096
	src := make([]float32, 0, batch)
	for u := lo; u < hi; u += stride {
		src = append(src, math.Float32frombits(uint32(u)))
		if len(src) == batch {
			if !checkTransc(t, src, 0) {
				return
			}
			src = src[:0]
		}
	}
	checkTransc(t, src, 0)
}

// TestTranscStridedSweep checks about 17M float32 bit patterns spread
// over the whole space (every sign, exponent and a spread of mantissas).
// The full 2³² sweep is transc_exhaustive_test.go (make
// kernels-exhaustive).
func TestTranscStridedSweep(t *testing.T) {
	sweepBits(t, 0, 1<<32, 251)
}

// TestTranscBoundaries drives the special values and every branch edge:
// ±0, ±Inf, NaNs, denormals, the vector exp range (-708, 709) and the
// float32 overflow/underflow of e^x, and math.tanh's |a| = 0.625 and
// 0.5·MAXLOG edges (reached through the GELU argument).
func TestTranscBoundaries(t *testing.T) {
	var src []float32
	add := func(vs ...float32) {
		for _, v := range vs {
			src = append(src, v, -v)
			for _, d := range []int32{-2, -1, 1, 2} {
				b := int32(math.Float32bits(v)) + d
				if b >= 0 {
					src = append(src, math.Float32frombits(uint32(b)), -math.Float32frombits(uint32(b)))
				}
			}
		}
	}
	inf := float32(math.Inf(1))
	add(0, inf, math.MaxFloat32, math.SmallestNonzeroFloat32, 1e-40, 1.1754942e-38)
	add(708, 709, 707.5, 709.5, 88.7, 89, 103, 104, 745, 746)
	add(0.5, 1, 2, 1e-20, 1e20, 3e38)
	src = append(src,
		float32(math.NaN()),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff912345))

	// GELU arguments a = c0·(x + 0.044715·x³) at the tanh branch edges:
	// bisect x for a = 0.625 and a = 0.5·MAXLOG and keep the float32
	// neighbourhood of each root.
	for _, edge := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		lo, hi := 0.0, 100.0
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if 0.7978845608028654*(mid+0.044715*mid*mid*mid) < edge {
				lo = mid
			} else {
				hi = mid
			}
		}
		root := float32(lo)
		for d := int32(-8); d <= 8; d++ {
			v := math.Float32frombits(uint32(int32(math.Float32bits(root)) + d))
			src = append(src, v, -v)
		}
	}
	checkTransc(t, src, 0)
	// Exact group boundaries: every offset of one out-of-range lane inside
	// an otherwise in-range group, including dst aliasing src.
	for i := 0; i < 9; i++ {
		row := []float32{0.5, -1, 2, -3, 4, -5, 6, -7, 8}
		row[i] = -inf
		checkTransc(t, row, 1.5)
		want := make([]float32, len(row))
		for j, v := range row {
			want[j] = refExpSub(v, 1.5)
		}
		ExpSubInto(row, row, 1.5)
		equalBits(t, "ExpSubInto(aliased)", row, want)
	}
	// Softmax-shaped rows: differences from the row max, including the
	// all -Inf row (every difference NaN).
	checkTransc(t, []float32{-inf, -inf, -inf, -inf, -inf}, -inf)
	checkTransc(t, []float32{3, 1, -2, 3, 0.25, -100, 2.5, 1e-3}, 3)
}

func FuzzExpSubAgainstMath(f *testing.F) {
	f.Add(uint32(0x3f800000), uint32(0xc2c80000), uint32(0x7f800000), uint32(0))
	f.Add(uint32(0xc4310000), uint32(0x44314000), uint32(0x7fc00000), uint32(0x3f000000))
	f.Add(uint32(0x00000001), uint32(0x80000000), uint32(0xff800000), uint32(0xff800000))
	f.Fuzz(func(t *testing.T, a, b, c, sub uint32) {
		// Seven lanes: one vector group plus a scalar tail, with the three
		// inputs and their negations mixed in.
		src := []float32{
			math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c),
			math.Float32frombits(a ^ 1<<31), math.Float32frombits(b ^ 1<<31),
			math.Float32frombits(c ^ 1<<31), math.Float32frombits(a),
		}
		checkTransc(t, src, math.Float32frombits(sub))
	})
}

func FuzzGELUAgainstMath(f *testing.F) {
	f.Add(uint32(0x3f800000), uint32(0x3f13cd3a), uint32(0x4128a3d7))
	f.Add(uint32(0x40c00000), uint32(0x80000000), uint32(0x7fc00000))
	f.Add(uint32(0x00000001), uint32(0xff800000), uint32(0x7f7fffff))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		src := []float32{
			math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c),
			math.Float32frombits(a ^ 1<<31), math.Float32frombits(b ^ 1<<31),
			math.Float32frombits(c ^ 1<<31), math.Float32frombits(b),
		}
		checkTransc(t, src, 0)
	})
}
