// Fast float32 transcendentals for the quantized inference path. The
// float32 kernels' bit-identity contract pins the results of
// math.Exp/math.Tanh — the tape and the exact decode path get them from
// ExpSubInto/GELUInPlace (transc.go), lane-exact vector copies of those
// library routines — but the int8 path is already an approximation
// guarded by the ambiguity fallback, so its softmax/GELU/scoring can use
// short float32 polynomials instead.
//
// Both functions are pure branches-and-arithmetic over float32: the same
// input always produces the same output, so the quantized path stays
// bit-identical across worker counts and repeated runs. Relative error
// is ≤ ~3e-6 for FastExp32 and ≤ ~1e-5 for FastTanh32 — two to three
// orders of magnitude below the int8 quantization noise the ambiguity
// margin already absorbs.
package tensor

import "math"

const (
	log2e   = 1.4426950408889634
	ln2Hi   = 6.9335937500e-01 // high bits of ln 2 (exact in float32)
	ln2Lo   = -2.1219444005e-04
	expMax  = 88.0  // e^x overflows float32 just past this
	expMin  = -87.0 // e^x underflows to 0 below this
	roundMg = float32(3 << 22)
)

// FastExp32 approximates e^x. Range reduction x = n·ln2 + r with
// |r| ≤ ln2/2, a degree-5 Taylor polynomial for e^r, and an exponent-bit
// reconstruction for 2ⁿ.
func FastExp32(x float32) float32 {
	if x > expMax {
		return float32(math.Inf(1))
	}
	if x < expMin {
		return 0
	}
	nf := float32(float32(x*log2e)+roundMg) - roundMg
	r := float32(x-nf*ln2Hi) - nf*ln2Lo
	// e^r ≈ 1 + r(1 + r(1/2 + r(1/6 + r(1/24 + r/120)))), |r| ≤ 0.347.
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	return p * math.Float32frombits(uint32(int32(nf)+127)<<23)
}

// FastTanh32 approximates tanh(x) via e^{2|x|}: tanh(x) =
// sign(x)·(1 − 2/(e^{2|x|}+1)), saturating to ±1 past |x| = 9 where
// float32 tanh is 1 to the last bit anyway.
func FastTanh32(x float32) float32 {
	neg := x < 0
	if neg {
		x = -x
	}
	var t float32
	if x >= 9 {
		t = 1
	} else {
		e := FastExp32(2 * x)
		t = 1 - 2/(e+1)
	}
	if neg {
		return -t
	}
	return t
}
