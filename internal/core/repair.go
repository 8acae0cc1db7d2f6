package core

import (
	"iter"
	"strings"
	"sync"

	"vega/internal/confidence"
	"vega/internal/cpp"
	"vega/internal/feature"
	"vega/internal/generate"
	"vega/internal/model"
)

// repairBeamWidth is the minimum beam width used when mining repair
// candidates: even a greedy pipeline widens the search once a statement
// has been refuted by a counterexample — the whole point of the repair
// round is to look past the model's first choice.
const repairBeamWidth = 4

// repairDecoder adapts the pipeline's Stage 3 decoder to the repair
// engine's constrained re-decoding interface. Candidates come from four
// deterministic sources, in preference order:
//
//  1. the row template instantiated with the generation target's own
//     mined placeholder values (the value grid counterexamples prune —
//     the model's top choice was refuted, so its competitors get their
//     turn in similarity-rank order);
//  2. beam-search alternatives for the row, re-decoded through the same
//     statement reconstruction as generation (the surviving beams the
//     engine re-ranks by verification outcome);
//  3. the training targets' own statements for the row, in fleet order
//     (the template's PerTarget variants — ground-truth shapes the model
//     may have mis-scored);
//  4. when the row may legitimately be absent, the explicit drop.
//
// The sources are lazy: a source runs only once the engine pulls past
// the candidates of the sources before it, so the beam search (the
// expensive one) is skipped whenever the template grid satisfies the
// engine first. Texts in banned (refuted by earlier rounds) are pruned.
// Candidate scores are lifted to the confidence threshold so an adopted
// candidate renders; only fully verified functions ever keep these
// lifted scores — failed repairs revert to the original statements.
//
// The target values a row's candidates are mined from come from tvs: the
// Stage 3 worker hands over the set it resolved for encoding, so repair
// resolves none of its own.
type repairDecoder struct {
	p      *Pipeline
	target string
	tvs    *targetValueMemo
}

// targetValueMemo holds the resolved target values of the functions
// being repaired, keyed by function name, for one GenerateBackendOptions
// call. Each function belongs to one worker, so a key is never written
// by two goroutines; the mutex guards the map itself.
type targetValueMemo struct {
	mu sync.Mutex
	m  map[string]*feature.TargetFeatures
}

// put memoizes tv for the function name; a nil tv records nothing.
func (m *targetValueMemo) put(name string, tv *feature.TargetFeatures) {
	if tv == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[string]*feature.TargetFeatures)
	}
	m.m[name] = tv
}

func (m *targetValueMemo) get(name string) *feature.TargetFeatures {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[name]
}

func (m *targetValueMemo) drop(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.m, name)
}

// targetValues returns g's target values, resolving and memoizing them
// only when no worker handed them over (its encode step panicked).
func (d repairDecoder) targetValues(g *Group) *feature.TargetFeatures {
	if tv := d.tvs.get(g.Func.Name); tv != nil {
		return tv
	}
	tv := d.p.Extractor.TargetValues(g.TF, d.target)
	d.tvs.put(g.Func.Name, tv)
	return tv
}

func (d repairDecoder) Candidates(fnName string, row int, banned []string, forcePresent bool) iter.Seq[generate.Statement] {
	return func(yield func(generate.Statement) bool) {
		d.candidates(fnName, row, banned, forcePresent, yield)
	}
}

// candidates yields Candidates' sequence, returning as soon as yield
// reports the consumer has stopped.
func (d repairDecoder) candidates(fnName string, row int, banned []string, forcePresent bool, yield func(generate.Statement) bool) {
	g := d.p.GroupByName(fnName)
	if g == nil || row < 0 || row >= len(g.FT.Rows) {
		return
	}
	tv := d.targetValues(g)
	skip := make(map[string]bool, len(banned))
	for _, b := range banned {
		skip[b] = true
	}
	// A candidate that still carries a raw placeholder name (the model
	// under-produced and the SV slot went unfilled) can never parse —
	// score-lifting it would only waste a verification.
	varNames := map[string]bool{}
	for _, el := range g.FT.Rows[row].Pattern {
		if el.Var {
			varNames[el.Text] = true
		}
	}
	unresolved := func(text string) bool {
		if len(varNames) == 0 {
			return false
		}
		toks, err := cpp.Lex(text)
		if err != nil {
			return true
		}
		for _, tok := range cpp.TokenTexts(toks) {
			if varNames[tok] {
				return true
			}
		}
		return false
	}
	seenAbsent := false
	// emit filters st and yields the survivors; it reports whether
	// the consumer wants more.
	emit := func(st generate.Statement) bool {
		if st.Absent {
			if forcePresent || seenAbsent {
				return true
			}
			seenAbsent = true
			return yield(st)
		}
		if st.Text == "" || skip[st.Text] || unresolved(st.Text) {
			return true
		}
		skip[st.Text] = true
		if !confidence.Likely(st.Score) {
			// A refutation-driven substitution must survive the
			// confidence filter to take effect; verification, not the
			// score, now decides whether it stays.
			st.Score = confidence.Threshold
		}
		return yield(st)
	}

	for _, st := range d.templateCandidates(g, row, tv) {
		if !emit(st) {
			return
		}
	}
	if bs, ok := d.p.Model.(beamSearcher); ok {
		width := d.p.Cfg.BeamWidth
		if width < repairBeamWidth {
			width = repairBeamWidth
		}
		in := d.p.rowInputTokens(g, row, tv, d.target)
		inIDs := append([]int{model.CLS}, d.p.Vocab.Encode(in)...)
		d.p.gm.repairBeams.Inc()
		for _, beam := range bs.BeamGenerate(inIDs, d.p.Cfg.MaxOutPieces, width) {
			if !emit(d.p.decodeStatement(g, row, tv, beam.IDs)) {
				return
			}
		}
	}
	for _, tgt := range g.Targets {
		toks, ok := g.FT.Rows[row].PerTarget[tgt]
		if !ok {
			continue
		}
		if !emit(generate.Statement{
			Row:     row,
			Text:    joinTokens(toks),
			Score:   confidence.Threshold,
			Formula: d.p.rowFormulaScore(g, row, tv, true),
		}) {
			return
		}
	}
	emit(generate.Statement{Row: row, Absent: true,
		Formula: d.p.rowFormulaScore(g, row, tv, false)})
}

// Caps on the template-instantiation grid: values per placeholder and
// instantiations per row. The engine's own MaxCandidates caps the final
// pool, so these only bound the enumeration work.
const (
	repairMaxVarValues = 4
	repairMaxCombos    = 12
)

// templateCandidates instantiates the row's pattern with the generation
// target's own mined placeholder values — the same candidate lists the
// encoder shows the model, enumerated directly so verification (not the
// model's refuted ranking) picks among them. Rows with a placeholder that
// mined no candidates produce nothing: an unresolved SV name cannot parse.
func (d repairDecoder) templateCandidates(g *Group, row int, tv *feature.TargetFeatures) []generate.Statement {
	ids := g.FT.Rows[row].VarIDs()
	formula := d.p.rowFormulaScore(g, row, tv, true)
	vals := make([][]string, len(ids))
	for i, id := range ids {
		cands, _ := d.p.varCandidates(g, row, id, tv, d.target)
		if len(cands) == 0 {
			return nil
		}
		if len(cands) > repairMaxVarValues {
			cands = cands[:repairMaxVarValues]
		}
		vals[i] = cands
	}
	render := func(pick []int) string {
		var toks []string
		vi := 0
		for _, el := range g.FT.Rows[row].Pattern {
			if !el.Var {
				toks = append(toks, el.Text)
				continue
			}
			toks = append(toks, strings.Fields(vals[vi][pick[vi]])...)
			vi++
		}
		return joinTokens(toks)
	}
	var out []generate.Statement
	pick := make([]int, len(ids))
	for len(out) < repairMaxCombos {
		out = append(out, generate.Statement{
			Row: row, Text: render(pick), Score: confidence.Threshold, Formula: formula,
		})
		// Odometer over the value grid, last placeholder fastest, so the
		// similarity-ranked top values pair up first.
		i := len(pick) - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(vals[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}
