//go:build !amd64 || amd64.v3

package tensor

// These builds run the scalar loops; the stubs are never reached
// (useFMA is a false constant). See transc_amd64.go for why GOAMD64=v3
// and higher are excluded.

const useFMA = false

func expSubAVX2(dst, src *float32, n int, sub float32) int {
	panic("tensor: expSubAVX2 unavailable in this build")
}

func geluAVX2(xs *float32, n int) {
	panic("tensor: geluAVX2 unavailable in this build")
}
