package model

import (
	"math"
	"sort"
)

// Beam holds one decoding hypothesis.
type Beam struct {
	IDs  []int
	LogP float64
	done bool

	// emitted counts the tokens the model actually emitted for this
	// hypothesis, including the EOS that IDs strips from finished beams.
	// Length normalization must use this count: normalizing done beams
	// by the shorter len(IDs) while live beams at the same step divide
	// by their full length biased pruning toward early termination.
	emitted int
}

// Score returns the length-normalized log probability, normalizing over
// the emitted-token count (EOS included) so finished and live hypotheses
// at the same step are compared over the same number of factors in LogP.
func (b Beam) Score() float64 {
	n := b.emitted
	if n == 0 {
		n = len(b.IDs)
	}
	if n == 0 {
		n = 1
	}
	return b.LogP / float64(n)
}

// beamState is a live hypothesis during cached beam search: the Beam
// plus its KV-cached decoder and the logits row its last Step produced.
type beamState struct {
	Beam
	d      *IncrementalDecoder
	logits []float32
}

// BeamGenerate decodes with beam search of the given width, returning the
// hypotheses sorted best-first. Width 1 degenerates to greedy decoding.
//
// Decoding is incremental: each live hypothesis owns a KV-cached
// IncrementalDecoder, cloned when a hypothesis branches into several
// surviving children (the last child inherits the parent's decoder).
// Candidate construction, scoring, and the stable sort all mirror
// BeamGenerateUncached exactly, and the logits rows are bit-identical,
// so both paths return identical beams (enforced by
// TestBeamGenerateCachedMatchesUncached).
//
// A hypothesis whose prefix [BOS]+IDs has reached Cfg.MaxSeq can emit no
// further tokens — the positional table ends there — and is carried
// forward unexpanded, the same bound greedy Generate enforces. The
// (rare) EOS it might have emitted exactly at the boundary is forfeited;
// both paths agree on this.
func (t *Transformer) BeamGenerate(input []int, maxLen, width int) []Beam {
	if width < 1 {
		width = 1
	}
	beams := []*beamState{{}}
	if t.Cfg.MaxSeq > 1 && maxLen > 0 {
		d := t.NewIncrementalDecoder(input)
		beams[0].d = d
		beams[0].logits = d.Step(BOS)
	}

	// candidate is a scored expansion (or pass-through) awaiting pruning;
	// surviving candidates are materialized into beamStates afterwards,
	// so losing branches never pay for a decoder step.
	type candidate struct {
		Beam
		parent *beamState // expansion: parent hypothesis
		pass   *beamState // pass-through: already-final hypothesis
		id     int        // expansion: the token appended
	}

	for step := 0; step < maxLen; step++ {
		var next []candidate
		expanded := false
		for _, b := range beams {
			if b.done || 1+len(b.IDs) >= t.Cfg.MaxSeq {
				next = append(next, candidate{Beam: b.Beam, pass: b})
				continue
			}
			expanded = true
			row := b.logits
			maxv, lse := logNormalizer(row)
			for _, id := range TopK(row, width) {
				c := candidate{
					Beam: Beam{
						IDs:     append(append([]int{}, b.IDs...), id),
						LogP:    b.LogP + (float64(row[id]-maxv) - lse),
						emitted: len(b.IDs) + 1,
					},
					parent: b,
					id:     id,
				}
				if id == EOS {
					c.IDs = c.IDs[:len(c.IDs)-1]
					c.done = true
				}
				next = append(next, c)
			}
		}
		if !expanded {
			break
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].Score() > next[j].Score() })
		if len(next) > width {
			next = next[:width]
		}

		// Materialize survivors. Count how many surviving children still
		// need each parent's decoder: all but the last clone it.
		needs := make(map[*beamState]int, len(next))
		for _, c := range next {
			if c.parent != nil && !c.done && 1+len(c.IDs) < t.Cfg.MaxSeq {
				needs[c.parent]++
			}
		}
		newBeams := make([]*beamState, 0, len(next))
		for _, c := range next {
			if c.pass != nil {
				newBeams = append(newBeams, c.pass)
				continue
			}
			ns := &beamState{Beam: c.Beam}
			if !c.done && 1+len(c.IDs) < t.Cfg.MaxSeq {
				d := c.parent.d
				needs[c.parent]--
				if needs[c.parent] > 0 {
					d = d.Clone()
				}
				ns.d = d
				ns.logits = d.Step(c.id)
			}
			newBeams = append(newBeams, ns)
		}
		beams = newBeams
	}

	out := make([]Beam, len(beams))
	for i, b := range beams {
		out[i] = b.Beam
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score() > out[j].Score() })
	return out
}

// BeamGenerateUncached is the reference beam search: every live
// hypothesis re-runs the full decoder stack over its whole prefix each
// step. Kept as the ground truth the cached path is differentially
// tested against; semantics (MaxSeq bound, emitted-count normalization,
// candidate ordering) are identical by construction.
func (t *Transformer) BeamGenerateUncached(input []int, maxLen, width int) []Beam {
	if width < 1 {
		width = 1
	}
	tp := NewTape()
	mem := t.Encode(tp, input)

	beams := []Beam{{}}
	for step := 0; step < maxLen; step++ {
		var next []Beam
		expanded := false
		for _, b := range beams {
			if b.done || 1+len(b.IDs) >= t.Cfg.MaxSeq {
				next = append(next, b)
				continue
			}
			expanded = true
			prefix := append([]int{BOS}, b.IDs...)
			tp2 := NewTape()
			states := t.decodeStates(tp2, prefix, mem)
			logits := t.Logits(tp2, tp2.SliceRows(states, states.R-1, states.R))
			row := logits.Row(0)
			maxv, lse := logNormalizer(row)
			for _, id := range TopK(row, width) {
				nb := Beam{
					IDs:     append(append([]int{}, b.IDs...), id),
					LogP:    b.LogP + (float64(row[id]-maxv) - lse),
					emitted: len(b.IDs) + 1,
				}
				if id == EOS {
					nb.IDs = nb.IDs[:len(nb.IDs)-1]
					nb.done = true
				}
				next = append(next, nb)
			}
		}
		if !expanded {
			break
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].Score() > next[j].Score() })
		if len(next) > width {
			next = next[:width]
		}
		beams = next
	}
	sort.SliceStable(beams, func(i, j int) bool { return beams[i].Score() > beams[j].Score() })
	return beams
}

// Perplexity computes exp(mean cross entropy) of the model over samples,
// a convergence diagnostic.
func Perplexity(m Seq2Seq, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		tp := NewTape()
		loss := m.Loss(tp, s.Input, s.Output)
		total += float64(loss.Data[0])
	}
	return math.Exp(total / float64(len(samples)))
}
