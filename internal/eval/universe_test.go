package eval

import (
	"maps"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/interp"
)

// closureEnv builds a case's environment the way RunCase did before the
// universe shared its tables: a fresh Env(0) holding the case's globals,
// each sibling bound as a closure over that one environment.
func closureEnv(u *Universe, c Case) *interp.Env {
	env := u.Env(0)
	for k, v := range c.Globals {
		env.Globals[k] = v
	}
	env.MaxSteps = caseMaxSteps
	for name, fn := range env.Procs {
		env.Funcs[name] = func(args []any) (any, error) {
			bound := map[string]any{}
			for i, p := range fn.Children[1].Children {
				if i < len(args) && p.Value != "" {
					bound[p.Value] = args[i]
				}
			}
			return interp.Call(fn, env, bound)
		}
	}
	env.Procs = nil
	return env
}

// TestRunCaseSharedMatchesFreshEnv: every suite case of the held-out
// references gives the same Outcome on the universe's shared tables as
// on a freshly built environment. Each case runs the reference and the
// next target's implementation of the same function, so runtime errors
// (foreign target symbols), fatal aborts and effects all occur.
func TestRunCaseSharedMatchesFreshEnv(t *testing.T) {
	c := buildCorpus(t)
	targets := []string{"RISCV", "RI5CY", "XCore"}
	var runs, fatals, errs, effects int
	for ti, name := range targets {
		b := c.Backends[name]
		other := c.Backends[targets[(ti+1)%len(targets)]]
		u := NewUniverse(b)
		for _, fname := range SuiteNames() {
			for _, fn := range []*cpp.Node{b.Funcs[fname], other.Funcs[fname]} {
				if fn == nil {
					continue
				}
				for i, cs := range Suite(fname, u) {
					shared := u.RunCase(fn, cs)
					fresh := u.run(fn, cs, closureEnv(u, cs))
					if !shared.Equal(fresh) {
						t.Errorf("%s %s case %d: shared %+v, fresh %+v", name, fname, i, shared, fresh)
					}
					runs++
					if shared.Fatal {
						fatals++
					}
					if shared.Err {
						errs++
					}
					if len(shared.Effects) > 0 {
						effects++
					}
				}
			}
		}
	}
	t.Logf("%d runs: %d fatal, %d runtime error, %d with effects", runs, fatals, errs, effects)
	if fatals == 0 || errs == 0 || effects == 0 {
		t.Errorf("coverage gap: %d fatal, %d runtime error, %d with effects; want each > 0", fatals, errs, effects)
	}
}

// siblingUniverse is RISCV's universe with one extra sibling that reads
// the ambient MachineFunction.
func siblingUniverse(t *testing.T) *Universe {
	t.Helper()
	b := *buildCorpus(t).Backends["RISCV"]
	b.Funcs = maps.Clone(b.Funcs)
	b.Funcs["frameSize"] = parseFunc(t, `int frameSize() { return MF.getStackSize(); }`)
	return NewUniverse(&b)
}

func parseFunc(t *testing.T, src string) *cpp.Node {
	t.Helper()
	fn, err := cpp.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestUniverseSiblingSeesCaseMF: a sibling called from a case runs in
// that case's environment, so it reads the case's MF override, not the
// shared tables' default.
func TestUniverseSiblingSeesCaseMF(t *testing.T) {
	u := siblingUniverse(t)
	caller := parseFunc(t, `int f() { return frameSize() + 1; }`)
	got := u.RunCase(caller, Case{Globals: map[string]any{"MF": MFObj(true, 48, false, 0)}})
	if got.Ret != "49" {
		t.Errorf("sibling under MF override: %+v, want ret 49", got)
	}
}

// TestUniverseCaseMFDoesNotLeak: a case's MF override stays with that
// case; the next case sees the shared default MF again.
func TestUniverseCaseMFDoesNotLeak(t *testing.T) {
	u := siblingUniverse(t)
	caller := parseFunc(t, `int f() { return frameSize() + MF.getStackSize(); }`)
	if got := u.RunCase(caller, Case{Globals: map[string]any{"MF": MFObj(true, 48, false, 0)}}); got.Ret != "96" {
		t.Fatalf("override case: %+v, want ret 96", got)
	}
	if got := u.RunCase(caller, Case{}); got.Ret != "0" {
		t.Errorf("case after an override: %+v, want ret 0 (default MF)", got)
	}
}

// BenchmarkRunCase runs RISCV getRelocType's 24-case suite once per op
// on a warm universe, the oracle's steady state: each candidate it
// verifies reruns its function's whole suite.
func BenchmarkRunCase(b *testing.B) {
	c, err := corpus.Build()
	if err != nil {
		b.Fatal(err)
	}
	ref := c.Backends["RISCV"]
	u := NewUniverse(ref)
	fn := ref.Funcs["getRelocType"]
	cases := Suite("getRelocType", u)
	u.RunCase(fn, cases[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range cases {
			u.RunCase(fn, cs)
		}
	}
}
