package model

import (
	"math/rand"
	"testing"

	"vega/internal/tensor"
)

// layerRowLens are the encoder input lengths (CLS plus tokens) of the 34
// template rows of RISCV getRelocType under the default corpus and
// pipeline config — the function BenchmarkLayer times. One op of every
// sub-benchmark is that layer's work for the whole function.
var layerRowLens = []int{63, 33, 40, 29, 27, 75, 63, 72, 63, 74, 64, 75, 66, 75, 66, 78, 69,
	24, 62, 23, 23, 27, 29, 65, 75, 66, 75, 69, 74, 62, 24, 37, 23, 23}

// layerVocab is the default pipeline's vocabulary size.
const layerVocab = 1218

// layerDecodeSteps is how many decoder steps one decoder-step op runs.
const layerDecodeSteps = 16

// layerConfig is the shipped model shape: Dim 48, 4 heads (dh = 12),
// FF 96.
func layerConfig(encLayers int) Config {
	return Config{Vocab: layerVocab, Dim: 48, Heads: 4, EncLayers: encLayers, DecLayers: 2,
		FFMult: 2, MaxSeq: 160, Seed: 1}
}

// BenchmarkLayer times the float32 model's layers at the shipped shape
// over one real function's rows:
//
//   - softmax: softmaxRow over every encoder attention score row (heads ×
//     L rows of length L per template row);
//   - gelu: the feed-forward GELU over L × FF activations per row;
//   - linear: the feed-forward input projection (L×48 · 48×96) per row;
//   - encoder-layer: EncodeBatch of all rows through a one-layer encoder
//     (the layer plus the embedding lookup and the final layer norm);
//   - decoder-step: a decoder built from the longest row's memory, run
//     for layerDecodeSteps steps; ns/step is reported beside ns/op.
//
// go test -run '^$' -bench Layer -benchtime 2s ./internal/model
func BenchmarkLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := layerConfig(2)
	t := NewTransformer(cfg)
	ffw := cfg.Dim * cfg.FFMult
	maxLen, total := 0, 0
	inputs := make([][]int, len(layerRowLens))
	for i, n := range layerRowLens {
		maxLen, total = max(maxLen, n), total+n
		in := make([]int, n)
		in[0] = CLS
		for j := 1; j < n; j++ {
			in[j] = 4 + rng.Intn(layerVocab-4)
		}
		inputs[i] = in
	}
	randRows := func(n int, scale float64) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(rng.NormFloat64() * scale)
		}
		return xs
	}

	b.Run("softmax", func(b *testing.B) {
		src := randRows(maxLen*maxLen, 2)
		row := make([]float32, maxLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range layerRowLens {
				for r := 0; r < cfg.Heads*n; r++ {
					copy(row, src[(r%n)*n:(r%n+1)*n])
					softmaxRow(row[:n])
				}
			}
		}
	})
	b.Run("gelu", func(b *testing.B) {
		src := randRows(maxLen*ffw, 1)
		buf := make([]float32, maxLen*ffw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range layerRowLens {
				copy(buf, src[:n*ffw])
				tensor.GELUInPlace(buf[:n*ffw])
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		h := randRows(maxLen*cfg.Dim, 1)
		out := make([]float32, maxLen*ffw)
		ff := t.Enc[0].FF.In
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range layerRowLens {
				linearRowsFwdInto(out[:n*ffw], h[:n*cfg.Dim], n, ff)
			}
		}
	})
	b.Run("encoder-layer", func(b *testing.B) {
		t1 := NewTransformer(layerConfig(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t1.EncodeBatch(inputs, false)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/token")
	})
	b.Run("decoder-step", func(b *testing.B) {
		longest := 0
		for i, n := range layerRowLens {
			if n > layerRowLens[longest] {
				longest = i
			}
		}
		mem := t.EncodeBatch(inputs[longest:longest+1], false)[0]
		toks := make([]int, layerDecodeSteps)
		toks[0] = BOS
		for j := 1; j < len(toks); j++ {
			toks[j] = 4 + rng.Intn(layerVocab-4)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := t.NewIncrementalDecoderFromMemory(mem, false)
			for _, tok := range toks {
				d.Step(tok)
			}
			d.Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*layerDecodeSteps), "ns/step")
	})
}
