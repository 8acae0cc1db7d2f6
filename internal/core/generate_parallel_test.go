package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"vega/internal/corpus"
	"vega/internal/generate"
)

// backendFingerprint serializes everything about a backend that must be
// invariant across decode path (cached/uncached) and worker count.
// Seconds is excluded: timings are the one legitimately nondeterministic
// output.
func backendFingerprint(b *generate.Backend) string {
	var sb strings.Builder
	for _, f := range b.Functions {
		sb.WriteString(functionFingerprint(f))
	}
	return sb.String()
}

func functionFingerprint(f *generate.Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%s\n", f.Name, f.Module, f.Target, f.Err)
	for _, s := range f.Statements {
		fmt.Fprintf(&sb, "  %d|%q|%v|%v|%v\n", s.Row, s.Text, s.Absent, s.Score, s.Formula)
	}
	return sb.String()
}

// TestParallelCachedMatchesSerialUncached is the PR's central differential
// test: the KV-cached incremental decoder running on an 8-worker pool must
// produce byte-identical backends to the reference full-prefix decoder
// running serially, in greedy and beam-search decoding modes.
func TestParallelCachedMatchesSerialUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	for _, beam := range []int{1, 2} {
		p.Cfg.BeamWidth = beam

		p.uncachedDecode = true
		p.Cfg.Workers = 1
		ref := p.GenerateBackend("RISCV")

		p.uncachedDecode = false
		p.Cfg.Workers = 8
		got := p.GenerateBackend("RISCV")

		if len(ref.Functions) == 0 {
			t.Fatalf("beam %d: reference backend is empty", beam)
		}
		if a, b := backendFingerprint(ref), backendFingerprint(got); a != b {
			t.Errorf("beam %d: parallel cached backend differs from serial uncached reference", beam)
		}
		if ref.Partial || got.Partial {
			t.Errorf("beam %d: unexpected Partial (ref=%v got=%v)", beam, ref.Partial, got.Partial)
		}
	}
}

// TestParallelWorkerCountInvariant checks output determinism across worker
// counts on every cached decode path — float32, int8 (Quantize) and
// greedy-first beam (BeamWidth 2 + BeamEscalate) — plus the per-module
// Seconds contract. Each worker count must give byte-identical backends
// with equal Recovered counts, and a Functions-scoped one-function call
// (the serving shape: a one-worker pool encoding a single function) must
// reproduce that function's bytes from the whole-backend run.
func TestParallelWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	ctx := context.Background()
	paths := []struct {
		name string
		beam int
		opt  GenOptions
	}{
		{"float32", 0, GenOptions{}},
		{"quantize", 0, GenOptions{Quantize: true}},
		{"beam-escalate", 2, GenOptions{BeamEscalate: true}},
	}
	for _, path := range paths {
		p.Cfg.BeamWidth = path.beam
		var ref *generate.Backend
		for _, w := range []int{1, 2, 8} {
			p.Cfg.Workers = w
			b := p.GenerateBackendOptions(ctx, "RISCV", path.opt)
			for _, m := range corpus.Modules {
				if _, ok := b.Seconds[string(m)]; !ok {
					t.Errorf("%s workers=%d: Seconds missing module %s", path.name, w, m)
				}
			}
			if ref == nil {
				ref = b
				continue
			}
			if backendFingerprint(ref) != backendFingerprint(b) {
				t.Errorf("%s: backend differs between Workers=1 and Workers=%d", path.name, w)
			}
			if ref.Recovered != b.Recovered {
				t.Errorf("%s: Recovered %d at Workers=1, %d at Workers=%d",
					path.name, ref.Recovered, b.Recovered, w)
			}
		}
		one := path.opt
		one.Functions = []string{"getRelocType"}
		b := p.GenerateBackendOptions(ctx, "RISCV", one)
		if len(b.Functions) != 1 {
			t.Fatalf("%s: scoped call generated %d functions, want 1", path.name, len(b.Functions))
		}
		if want := ref.Function("getRelocType"); want == nil ||
			functionFingerprint(b.Functions[0]) != functionFingerprint(want) {
			t.Errorf("%s: one-function call differs from the whole-backend run", path.name)
		}
	}
}

// countCtx is a context whose Err starts reporting Canceled after budget
// calls. The worker pool polls Err once per task, so this cancels the run
// mid-pool at a deterministic point without any timing dependence.
type countCtx struct {
	context.Context
	calls  atomic.Int64
	budget int64
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// TestParallelCancelMidPoolConsistent cancels mid-pool and checks the
// salvaged backend is consistent: Partial set, and every completed
// function an order-preserving, bit-identical subset of the full run.
func TestParallelCancelMidPoolConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	p.Cfg.Workers = 4
	full := p.GenerateBackend("RISCV")
	if len(full.Functions) < 10 {
		t.Fatalf("full run generated only %d functions", len(full.Functions))
	}

	ctx := &countCtx{Context: context.Background(), budget: 10}
	b := p.GenerateBackendContext(ctx, "RISCV")
	if !b.Partial {
		t.Error("canceled run not marked Partial")
	}
	if len(b.Functions) >= len(full.Functions) {
		t.Errorf("cancellation salvaged all %d functions; expected a strict subset", len(full.Functions))
	}

	// Order-preserving subset with identical content: every salvaged
	// function appears in the full run, in the same relative order.
	want := make([]string, len(full.Functions))
	for i, f := range full.Functions {
		want[i] = functionFingerprint(f)
	}
	j := 0
	for _, f := range b.Functions {
		fp := functionFingerprint(f)
		for j < len(want) && want[j] != fp {
			j++
		}
		if j == len(want) {
			t.Fatalf("salvaged function %s not found in full run (or out of order)", f.Name)
		}
		j++
	}
}
