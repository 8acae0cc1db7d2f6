package repair

import (
	"context"
	"fmt"
	"iter"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/generate"
	"vega/internal/obs"
)

// ---- fixture --------------------------------------------------------------

var (
	fixOnce sync.Once
	fixC    *corpus.Corpus
	fixErr  error
)

func buildCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	fixOnce.Do(func() { fixC, fixErr = corpus.Build() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixC
}

func refBackend(t *testing.T, target string) *corpus.Backend {
	t.Helper()
	b := buildCorpus(t).Backends[target]
	if b == nil {
		t.Fatalf("no backend for %s", target)
	}
	return b
}

// selfFunction rebuilds a generated function from the reference itself —
// a perfect generation, like eval's self-evaluation fixture.
func selfFunction(t *testing.T, b *corpus.Backend, name string) *generate.Function {
	t.Helper()
	ref := b.Funcs[name]
	if ref == nil {
		t.Fatalf("%s: no reference %s", b.Target.Name, name)
	}
	fn := &generate.Function{Name: name, Module: moduleOf(name), Target: b.Target.Name}
	for i, st := range cpp.SplitFunction(ref) {
		fn.Statements = append(fn.Statements, generate.Statement{Row: i, Text: st.Text, Score: 1})
	}
	return fn
}

func moduleOf(name string) string {
	for _, f := range corpus.AllFuncs() {
		if f.Name == name {
			return string(f.Module)
		}
	}
	return ""
}

// corrupt replaces the first statement containing marker with text,
// returning the corrupted row and the original text.
func corrupt(t *testing.T, fn *generate.Function, marker, text string) (row int, orig string) {
	t.Helper()
	for i := range fn.Statements {
		if strings.Contains(fn.Statements[i].Text, marker) {
			orig = fn.Statements[i].Text
			fn.Statements[i].Text = text
			return fn.Statements[i].Row, orig
		}
	}
	t.Fatalf("%s: no statement contains %q", fn.Name, marker)
	return 0, ""
}

// stubDecoder returns canned candidates per row and records calls.
type stubDecoder struct {
	cands map[int][]generate.Statement
	calls int
	panic bool
}

func (d *stubDecoder) Candidates(fnName string, row int, banned []string, forcePresent bool) iter.Seq[generate.Statement] {
	d.calls++
	if d.panic {
		panic("stub decoder explosion")
	}
	return slices.Values(d.cands[row])
}

// ---- oracle ---------------------------------------------------------------

func TestOracleSelfVerifyPasses(t *testing.T) {
	b := refBackend(t, "RISCV")
	for _, name := range []string{"isLegalICmpImmediate", "getUncondBranchOpcode", "getRelocType"} {
		v := (&Oracle{Ref: b}).Verify(selfFunction(t, b, name))
		if v.NoOracle || !v.Pass || v.CE != nil {
			t.Errorf("%s: self verify = %+v, want clean pass", name, v)
		}
		if v.Passed != v.Total || v.Total == 0 {
			t.Errorf("%s: passed %d/%d, want full nonzero grid", name, v.Passed, v.Total)
		}
	}
}

func TestOracleNoOracle(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	if v := (&Oracle{}).Verify(fn); !v.NoOracle {
		t.Errorf("nil-ref oracle: %+v, want NoOracle", v)
	}
	var nilOracle *Oracle
	if v := nilOracle.Verify(fn); !v.NoOracle {
		t.Errorf("nil oracle: %+v, want NoOracle", v)
	}
	ghost := &generate.Function{Name: "noSuchInterfaceFunc", Statements: fn.Statements}
	if v := (&Oracle{Ref: b}).Verify(ghost); !v.NoOracle {
		t.Errorf("unknown function: %+v, want NoOracle", v)
	}
}

func TestOracleUnparseable(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := &generate.Function{Name: "isLegalICmpImmediate", Target: "RISCV"}
	v := (&Oracle{Ref: b}).Verify(fn)
	if v.Pass || v.CE == nil || !strings.Contains(v.CE.Got, "unparseable") {
		t.Errorf("empty function verdict = %+v, want unparseable counterexample", v)
	}
}

func TestOracleCounterexampleAndSuspects(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, _ := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	v := (&Oracle{Ref: b}).Verify(fn)
	if v.Pass {
		t.Fatal("corrupted function passed verification")
	}
	if v.CE == nil || v.CE.Input == "" || v.CE.Got == v.CE.Want {
		t.Fatalf("counterexample = %+v, want concrete diverging input", v.CE)
	}
	if v.Passed == 0 || v.Passed >= v.Total {
		t.Errorf("passed %d/%d, want a partial score", v.Passed, v.Total)
	}
	found := false
	for _, s := range v.Suspects {
		if s.Row == row {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %+v do not implicate corrupted row %d", v.Suspects, row)
	}
	if v.CE.Row != v.Suspects[0].Row {
		t.Errorf("counterexample row %d != strongest suspect %d", v.CE.Row, v.Suspects[0].Row)
	}
}

func TestOracleTextualFallback(t *testing.T) {
	b, name := textualOnlyFunction(refBackend(t, "RISCV"))
	o := &Oracle{Ref: b}
	fn := selfFunction(t, b, name)
	if v := o.Verify(fn); !v.Pass {
		t.Errorf("%s: textual self verify failed: %+v", name, v)
	}
	fn.Statements[len(fn.Statements)/2].Text = "int totallyBogus = 99;"
	v := o.Verify(fn)
	if v.Pass || v.CE == nil || !strings.Contains(v.CE.Want, "text equality") {
		t.Errorf("%s: corrupted textual verdict = %+v, want textual counterexample", name, v)
	}
}

// textualOnlyFunction returns a backend and a function it implements that
// no regression suite covers, so the function's only oracle is the
// textual fallback. When every function of b has a suite (RISCV's do),
// the backend is a copy of b that also carries getRelocType under a name
// no suite knows.
func textualOnlyFunction(b *corpus.Backend) (*corpus.Backend, string) {
	u := eval.NewUniverse(b)
	for _, f := range corpus.AllFuncs() {
		if b.Funcs[f.Name] != nil && len(eval.Suite(f.Name, u)) == 0 {
			return b, f.Name
		}
	}
	const name = "suitelessGetRelocType"
	cp := *b
	cp.Funcs = maps.Clone(b.Funcs)
	cp.Funcs[name] = b.Funcs["getRelocType"]
	return &cp, name
}

// TestFunctionVerifierMatchesFreshVerify: one per-function verifier fed a
// sequence of candidates — reusing its universe, suite and memoized
// reference outcomes — must return exactly the verdicts fresh
// Oracle.Verify calls return, whatever order the candidates come in.
func TestFunctionVerifierMatchesFreshVerify(t *testing.T) {
	b := refBackend(t, "RISCV")
	o := &Oracle{Ref: b}
	suiteFn := func() *generate.Function { return selfFunction(t, b, "isLegalICmpImmediate") }
	partial := suiteFn()
	corrupt(t, partial, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	unparseable := suiteFn()
	unparseable.Statements[0].Text = "int ) ( {"
	seqs := map[string][]*generate.Function{
		"suite": {partial, suiteFn(), unparseable, partial, suiteFn()},
		// Reference outcomes first filled by an unparseable candidate's
		// (absent) suite run, then by a partial one.
		"unparseable first": {unparseable, partial, suiteFn()},
	}
	oracles := map[string]*Oracle{"suite": o, "unparseable first": o}
	tb, name := textualOnlyFunction(b)
	bogus := selfFunction(t, tb, name)
	bogus.Statements[len(bogus.Statements)/2].Text = "int totallyBogus = 99;"
	seqs["textual"] = []*generate.Function{bogus, selfFunction(t, tb, name), bogus}
	oracles["textual"] = &Oracle{Ref: tb}
	for label, seq := range seqs {
		o := oracles[label]
		fv := o.function(seq[0].Name)
		var verdicts []Verdict
		for i, fn := range seq {
			got, want := fv.verify(fn), o.Verify(fn)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s candidate %d: per-function verdict %+v, fresh %+v", label, i, got, want)
			}
			verdicts = append(verdicts, got)
		}
		// The sequence covers a pass and a failure each time.
		var passes, fails int
		for _, v := range verdicts {
			if v.Pass {
				passes++
			} else {
				fails++
			}
		}
		if passes == 0 || fails == 0 {
			t.Errorf("%s: %d passes, %d failures; want both", label, passes, fails)
		}
	}
	if v := o.Verify(partial); v.Passed == 0 || v.Passed >= v.Total {
		t.Errorf("partial candidate passed %d/%d, want a partial score", v.Passed, v.Total)
	}
	if v := o.Verify(unparseable); v.CE == nil || !strings.Contains(v.CE.Got, "unparseable") {
		t.Errorf("unparseable candidate verdict = %+v, want unparseable counterexample", v)
	}
}

// ---- engine ---------------------------------------------------------------

func TestEngineVerifyPassesCleanFunction(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	dec := &stubDecoder{}
	NewEngine(&Oracle{Ref: b}, dec, Options{}, nil).Run(context.Background(), fn, -1)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyPassed {
		t.Fatalf("verify = %+v, want VerifyPassed", fn.Verify)
	}
	if fn.Verify.Rounds != 0 || dec.calls != 0 {
		t.Errorf("rounds=%d decoderCalls=%d, want no repair work on a passing function",
			fn.Verify.Rounds, dec.calls)
	}
}

func TestEngineRepairsCorruptedStatement(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {
			{Row: row, Text: "  return true;", Score: 1},
			{Row: row, Text: orig, Score: 1},
		},
	}}
	NewEngine(&Oracle{Ref: b}, dec, Options{}, nil).Run(context.Background(), fn, -1)

	v := fn.Verify
	if v == nil || v.Status != generate.VerifyRepaired {
		t.Fatalf("verify = %+v, want VerifyRepaired", v)
	}
	if v.Rounds < 1 || v.Counterexample != "" {
		t.Errorf("rounds=%d ce=%q, want >=1 round and cleared counterexample", v.Rounds, v.Counterexample)
	}
	if len(v.RepairedRows) != 1 || v.RepairedRows[0] != row {
		t.Errorf("repaired rows %v, want [%d]", v.RepairedRows, row)
	}
	idx := rowIndex(fn.Statements, row)
	if fn.Statements[idx].Text != orig {
		t.Errorf("row %d text %q, want restored %q", row, fn.Statements[idx].Text, orig)
	}
	// The repaired function verifies clean.
	if after := (&Oracle{Ref: b}).Verify(fn); !after.Pass {
		t.Errorf("repaired function still fails: %+v", after)
	}
}

func TestEngineFailureRevertsToOriginal(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, _ := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	before := append([]generate.Statement(nil), fn.Statements...)

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: "  return false;", Score: 1}},
	}}
	NewEngine(&Oracle{Ref: b}, dec, Options{}, nil).Run(context.Background(), fn, -1)

	v := fn.Verify
	if v == nil || v.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed", v)
	}
	if v.Counterexample == "" {
		t.Error("failed verification without a counterexample")
	}
	if len(fn.Statements) != len(before) {
		t.Fatalf("statement count changed: %d != %d", len(fn.Statements), len(before))
	}
	for i := range before {
		if fn.Statements[i] != before[i] {
			t.Errorf("row %d mutated after failed repair: %+v != %+v", i, fn.Statements[i], before[i])
		}
	}
}

func TestEngineVerifyOnlySkipsRepair(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: orig, Score: 1}},
	}}
	// maxRounds 0 is the degrade ladder's skip-repair rung: status and
	// counterexample land, but no candidate is ever tried.
	NewEngine(&Oracle{Ref: b}, dec, Options{}, nil).Run(context.Background(), fn, 0)
	v := fn.Verify
	if v == nil || v.Status != generate.VerifyFailed || v.Rounds != 0 {
		t.Fatalf("verify = %+v, want VerifyFailed with 0 rounds", v)
	}
	if dec.calls != 0 {
		t.Errorf("decoder called %d times under skip-repair", dec.calls)
	}
}

func TestEngineNoOracle(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	NewEngine(&Oracle{}, &stubDecoder{}, Options{}, nil).Run(context.Background(), fn, -1)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyNoOracle {
		t.Fatalf("verify = %+v, want VerifyNoOracle", fn.Verify)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: orig, Score: 1}},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	NewEngine(&Oracle{Ref: b}, dec, Options{}, nil).Run(ctx, fn, -1)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed under cancelled context", fn.Verify)
	}
	if dec.calls != 0 {
		t.Errorf("decoder called %d times under cancelled context", dec.calls)
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	before := append([]generate.Statement(nil), fn.Statements...)

	o := obs.New(nil)
	eng := NewEngine(&Oracle{Ref: b}, &stubDecoder{panic: true}, Options{}, o)
	eng.Run(context.Background(), fn, -1) // must not crash the caller
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed after decoder panic", fn.Verify)
	}
	if got := eng.m.panics.Value(); got < 1 {
		t.Errorf("repair.verify_panics = %v, want >= 1", got)
	}
	for i := range before {
		if fn.Statements[i] != before[i] {
			t.Errorf("row %d mutated after panicked repair", i)
		}
	}
}

// endlessDecoder proposes an unbounded stream of wrong candidates for
// every row and counts how many the engine pulls.
type endlessDecoder struct{ calls, pulled int }

func (d *endlessDecoder) Candidates(fnName string, row int, banned []string, forcePresent bool) iter.Seq[generate.Statement] {
	d.calls++
	return func(yield func(generate.Statement) bool) {
		for i := 0; ; i++ {
			d.pulled++
			if !yield(generate.Statement{Row: row, Text: fmt.Sprintf("  return %d;", 1000+i), Score: 1}) {
				return
			}
		}
	}
}

// TestEngineStopsPullingAtBound: candidate sequences are lazy, so the
// engine must stop pulling at its MaxCandidates bound — without one
// extra pull, which for the pipeline's decoder can cost a beam search.
func TestEngineStopsPullingAtBound(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	dec := &endlessDecoder{}
	const bound = 3
	NewEngine(&Oracle{Ref: b}, dec, Options{MaxCandidates: bound}, nil).Run(context.Background(), fn, -1)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed", fn.Verify)
	}
	if dec.calls == 0 || dec.pulled > bound*dec.calls {
		t.Errorf("pulled %d candidates over %d sequences, want at most %d each", dec.pulled, dec.calls, bound)
	}
}

func TestEngineNilAndFailedFunctions(t *testing.T) {
	eng := NewEngine(&Oracle{}, nil, Options{}, nil)
	eng.Run(context.Background(), nil, -1) // must not crash
	failed := &generate.Function{Name: "x", Err: "decode exploded"}
	eng.Run(context.Background(), failed, -1)
	if failed.Verify != nil {
		t.Errorf("failed function got verification %+v, want none", failed.Verify)
	}
	var nilEngine *Engine
	nilEngine.Run(context.Background(), failed, -1) // nil engine is inert
}
