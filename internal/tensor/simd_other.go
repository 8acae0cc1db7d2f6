//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go loops everywhere; these stubs are
// never reached.

const useAVX2 = false

func axpyAVX2(dst, src *float32, n int, alpha float32) {
	panic("tensor: axpyAVX2 on non-amd64")
}

func matmulRowAVX2(o, a, b *float32, k, c, lda int) {
	panic("tensor: matmulRowAVX2 on non-amd64")
}
