//go:build exhaustive

package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// TestTranscExhaustive checks ExpSubInto and GELUInPlace against math on
// every one of the 2³² float32 inputs. It takes minutes, so it runs only
// with the exhaustive build tag: make kernels-exhaustive.
func TestTranscExhaustive(t *testing.T) {
	const span = 1 << 32
	w := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := uint64(0); i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweepBits(t, i*span/w, (i+1)*span/w, 1)
		}()
	}
	wg.Wait()
}
