package model

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refTopK is TopK's specification: a stable descending sort of the
// indexes, so equal values keep index order, cut to k.
func refTopK(xs []float32, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:max(0, min(k, len(idx)))]
}

func TestTopKContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float32
		k    int
		want []int
	}{
		{"descending", []float32{1, 5, 3, 4}, 3, []int{1, 3, 2}},
		{"ties by lower index", []float32{2, 7, 2, 7, 2}, 4, []int{1, 3, 0, 2}},
		{"all equal", []float32{0, 0, 0}, 2, []int{0, 1}},
		{"negative zero ties zero", []float32{float32(math.Copysign(0, -1)), 0}, 2, []int{0, 1}},
		{"k above len", []float32{3, 1, 2}, 10, []int{0, 2, 1}},
		{"k zero", []float32{3, 1, 2}, 0, nil},
		{"k negative", []float32{3, 1, 2}, -2, nil},
		{"empty", nil, 3, nil},
		{"infinities", []float32{float32(math.Inf(-1)), 1, float32(math.Inf(1))}, 3, []int{2, 1, 0}},
	} {
		if got := TopK(tc.xs, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("%s: TopK(%v, %d) = %v, want %v", tc.name, tc.xs, tc.k, got, tc.want)
		}
	}
}

// k == 1 is greedy decoding's choice: it must agree with argmax, whose
// strict > also keeps the lowest index among ties.
func TestTopKOneIsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float32, 1+rng.Intn(64))
		for i := range xs {
			xs[i] = float32(rng.Intn(9) - 4) // small range: plenty of ties
		}
		if got := TopK(xs, 1); len(got) != 1 || got[0] != argmax(xs) {
			t.Fatalf("TopK(%v, 1) = %v, argmax = %d", xs, got, argmax(xs))
		}
	}
}

// FuzzTopK checks the selection against the stable-sort specification
// over arbitrary finite rows; the input bytes are read as little-endian
// float32s.
func FuzzTopK(f *testing.F) {
	row := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(row(1, 5, 3, 4), 3)
	f.Add(row(2, 7, 2, 7, 2), 4)
	f.Add(row(0, float32(math.Copysign(0, -1)), 0), 2)
	f.Add(row(-1e30, 1e30, 3.5, -0.25, 3.5), 1)
	f.Add(row(), 2)
	f.Add(row(9, 8), -1)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		xs := make([]float32, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
			xs = append(xs, v)
		}
		k %= len(xs) + 3 // keep k near the row length: below, at and above it
		if got, want := TopK(xs, k), refTopK(xs, k); !slices.Equal(got, want) {
			t.Fatalf("TopK(%v, %d) = %v, want %v", xs, k, got, want)
		}
	})
}

// refLogProb is the per-id log-softmax beam search computed before the
// normalizer was hoisted: the full log-sum-exp redone for every id.
func refLogProb(logits []float32, idx int) float64 {
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	return float64(logits[idx]-maxv) - math.Log(sum)
}

// TestHoistedNormalizerBitIdentical: beam search computes the
// normalizer once per row and reuses it for every kept id; each value
// must be bit-identical to the per-id computation, over random rows and
// the logits rows a real decoder produces.
func TestHoistedNormalizerBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]float32
	for i := 0; i < 50; i++ {
		row := make([]float32, 1+rng.Intn(300))
		for j := range row {
			row[j] = float32(rng.NormFloat64() * 8)
		}
		rows = append(rows, row)
	}
	const vocab = 40
	m := NewTransformer(tinyConfig(vocab))
	d := m.NewIncrementalDecoder([]int{CLS, 20, 21, 22, SEP})
	tok := BOS
	for step := 0; step < 8; step++ {
		row := append([]float32(nil), d.Step(tok)...)
		rows = append(rows, row)
		tok = argmax(row)
	}
	for ri, row := range rows {
		maxv, lse := logNormalizer(row)
		for _, id := range TopK(row, 4) {
			got := float64(row[id]-maxv) - lse
			if want := refLogProb(row, id); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d id %d: hoisted %v, per-id %v", ri, id, got, want)
			}
			if lp := logProb(row, id); math.Float64bits(lp) != math.Float64bits(got) {
				t.Fatalf("row %d id %d: logProb %v, hoisted %v", ri, id, lp, got)
			}
		}
	}
}
