package tensor

import "math"

// Exact float32 transcendentals for the float32 model path: the softmax
// exponent and the tanh-approximated GELU, bit-identical to their
// float64 math.Exp/math.Tanh formulas. On amd64 with AVX2 and FMA the
// vector kernels (transc_amd64.s) run four float64 lanes at a time, each
// lane executing exactly the scalar instruction sequence; elsewhere the
// scalar loops below run. transc_test.go pins both against math.

// ExpSubInto sets dst[i] = float32(math.Exp(float64(src[i]-sub))) for
// i < len(src). dst may alias src.
func ExpSubInto(dst, src []float32, sub float32) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2 && useFMA {
		n4 := len(src) &^ 3
		for i < n4 {
			i += expSubAVX2(&dst[i], &src[i], n4-i, sub)
			// The kernel stopped at a group with a lane outside its
			// range: run that group through math.Exp.
			for e := min(i+4, n4); i < e; i++ {
				dst[i] = expSub(src[i], sub)
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = expSub(src[i], sub)
	}
}

func expSub(v, sub float32) float32 {
	return float32(math.Exp(float64(v - sub)))
}

// GELUInPlace applies the tanh-approximated GELU,
// xs[i] = float32(0.5·x·(1 + math.Tanh(√(2/π)·(x + 0.044715·x³)))) with
// x = float64(xs[i]), in place.
func GELUInPlace(xs []float32) {
	i := 0
	if useAVX2 && useFMA && len(xs) >= 4 {
		i = len(xs) &^ 3
		geluAVX2(&xs[0], i)
	}
	for ; i < len(xs); i++ {
		xs[i] = geluScalar(xs[i])
	}
}

func geluScalar(v float32) float32 {
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c0*(x+0.044715*x*x*x))))
}
