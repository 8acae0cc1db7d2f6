//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestVectorKernelsMatchScalarPaths toggles the useAVX2 dispatch var and
// checks the vector exp, GELU and row kernels against the scalar loops
// they replace, on the same inputs — amd64-only, since elsewhere useAVX2
// is a false constant and there is no second path to compare.
func TestVectorKernelsMatchScalarPaths(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 unavailable on this machine")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 3, 4, 5, 12, 48, 96, 1218} {
		src := make([]float32, n)
		fill(src, rng, 0.1)
		for i := range src {
			src[i] *= 8
		}
		scalarExp, vecExp := make([]float32, n), make([]float32, n)
		scalarGELU, vecGELU := append([]float32(nil), src...), append([]float32(nil), src...)
		useAVX2 = false
		ExpSubInto(scalarExp, src, src[0])
		GELUInPlace(scalarGELU)
		useAVX2 = true
		ExpSubInto(vecExp, src, src[0])
		GELUInPlace(vecGELU)
		equalBits(t, "ExpSubInto(vector vs scalar)", vecExp, scalarExp)
		equalBits(t, "GELUInPlace(vector vs scalar)", vecGELU, scalarGELU)
	}
	for _, c := range rowWidths {
		for _, k := range rowDepths {
			a := make([]float32, 2*k)
			b := make([]float32, k*c)
			fillSpecial(a, rng)
			fill(b, rng, 0.1)
			scalar := make([]float32, 2*c)
			fill(scalar, rng, 0)
			vec := append([]float32(nil), scalar...)
			useAVX2 = false
			MatMul(scalar, a, b, 2, k, c)
			useAVX2 = true
			MatMul(vec, a, b, 2, k, c)
			equalFloats(t, "MatMul(vector vs scalar)", vec, scalar)
		}
	}
}
