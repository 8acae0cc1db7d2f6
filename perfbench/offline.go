package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"vega"
	"vega/internal/core"
	"vega/internal/generate"
)

// reference is the first generation of each evaluation target in a
// run. Every later generation of the same target in the run — by the
// same pipeline, by the traced twin pipeline, or through vega-serve —
// must reproduce it byte for byte.
type reference struct {
	verify   bool
	targets  []string
	backends map[string]*generate.Backend
	// fnJSON holds each function's JSON encoding (statements, scores,
	// verification outcome), keyed by target and function name.
	fnJSON map[string]map[string][]byte
	// pass1 is the mean over targets, in %, of the eval harness's
	// pass@1: plain for a plain reference, after repair for a verified
	// one. details carries the per-target figures. Both are set by score.
	pass1   float64
	details map[string]float64
}

func newReference(verify bool, targets []string) *reference {
	return &reference{
		verify:   verify,
		targets:  targets,
		backends: map[string]*generate.Backend{},
		fnJSON:   map[string]map[string][]byte{},
		details:  map[string]float64{},
	}
}

// score evaluates the reference backends with the eval harness, which
// executes each function against the target's hand-written reference
// backend (internal/eval and internal/interp); the model's confidence
// plays no part.
func (ref *reference) score(ctx context.Context, p *core.Pipeline) {
	ref.pass1 = 0
	for _, t := range ref.targets {
		var rep *vega.Report
		_ = spanned(ctx, "bench/Evaluate", func(context.Context) error {
			rep = vega.Evaluate(p, ref.backends[t])
			return nil
		})
		if ref.verify {
			rs := rep.Repair()
			ref.details[t+".plain_pass1"] = 100 * rs.PlainPass1()
			ref.details[t+".verified_pass1"] = 100 * rs.VerifiedPass1()
			ref.pass1 += 100 * rs.VerifiedPass1() / float64(len(ref.targets))
		} else {
			acc := 100 * rep.Totals().FunctionAccuracy()
			ref.details[t+".pass1"] = acc
			ref.pass1 += acc / float64(len(ref.targets))
		}
	}
}

// generateBackend is one whole-backend Stage 3 call with the vega CLI's
// defaults: float32, greedy, NumCPU workers, verify as asked.
func generateBackend(ctx context.Context, p *core.Pipeline, target string, verify bool) *generate.Backend {
	var b *generate.Backend
	_ = spanned(ctx, "bench/GenerateBackendOptions", func(ctx context.Context) error {
		b = p.GenerateBackendOptions(ctx, target, core.GenOptions{Verify: verify})
		return nil
	})
	return b
}

// check compares a backend with the reference of its target and counts
// its functions; the first backend of a target becomes its reference. A
// function fails if it differs from the reference, was recovered from a
// panic, or belongs to a partial backend.
func (ref *reference) check(b *generate.Backend, ph *phase) {
	want, adopt := ref.fnJSON[b.Target], ref.fnJSON[b.Target] == nil
	if adopt {
		want = map[string][]byte{}
		ref.fnJSON[b.Target] = want
		ref.backends[b.Target] = b
	}
	n := len(b.Functions)
	if !adopt {
		n = max(n, len(want))
	}
	ph.attempted += n
	if b.Partial || (!adopt && len(b.Functions) != len(want)) {
		ph.failed += n
		ph.note(fmt.Sprintf("%s: %d functions (partial %v), reference has %d", b.Target, len(b.Functions), b.Partial, len(want)))
		return
	}
	for _, fn := range b.Functions {
		got, err := json.Marshal(fn)
		switch {
		case err != nil:
			ph.fail(fmt.Sprintf("%s/%s: %v", b.Target, fn.Name, err))
		case fn.Failed():
			ph.fail(fmt.Sprintf("%s/%s: generation failed: %s", b.Target, fn.Name, fn.Err))
		case adopt:
			want[fn.Name] = got
			ph.fns++
		case string(got) != string(want[fn.Name]):
			ph.fail(fmt.Sprintf("%s/%s: output differs from the run's first generation", b.Target, fn.Name))
		default:
			ph.fns++
		}
	}
}

// offlinePhase generates whole backends back to back, in rounds over the
// reference's targets in a seeded order, until seconds have passed; it
// always finishes the round, so every target appears equally often (and
// at least once). Only the generation calls are timed; each round
// yields one rate.
func offlinePhase(ctx context.Context, p *core.Pipeline, ref *reference, seed int64, seconds float64) phase {
	rng := rand.New(rand.NewSource(seed))
	var ph phase
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(ph.lat) == 0 {
		fns, busy := ph.fns, 0.0
		for _, i := range rng.Perm(len(ref.targets)) {
			t0 := time.Now()
			b := generateBackend(ctx, p, ref.targets[i], ref.verify)
			d := time.Since(t0).Seconds()
			ph.lat = append(ph.lat, d)
			busy += d
			ref.check(b, &ph)
		}
		ph.rates = append(ph.rates, float64(ph.fns-fns)/busy)
	}
	return ph
}
