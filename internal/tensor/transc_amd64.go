//go:build amd64 && !amd64.v3

package tensor

// The vector exp and GELU kernels copy math.Exp's amd64 FMA branch, so
// they may run only where math.Exp itself takes that branch (AVX and FMA
// present; useAVX2 implies the AVX half). They also copy math.tanh, which
// is Go code: at GOAMD64=v3 or higher the compiler may fuse its
// multiply-adds, so those builds use the scalar loops (transc_other.go).

// useFMA reports CPUID.1:ECX[12], the FMA feature bit.
var useFMA = func() bool {
	_, _, c1, _ := cpuidex(1, 0)
	return c1&(1<<12) != 0
}()

// expSubAVX2 sets dst[i] = float32(math.Exp(float64(src[i]-sub))) for
// i < n, n a multiple of 4, four lanes at a time. It stops before the
// first four-lane group with a lane outside (-708, 709) or a NaN and
// returns the number of elements written.
func expSubAVX2(dst, src *float32, n int, sub float32) int

// geluAVX2 applies geluScalar in place to xs[:n], n a multiple of 4.
func geluAVX2(xs *float32, n int)
