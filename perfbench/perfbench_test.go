package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vega/internal/core"
	"vega/internal/faultinject"
	"vega/internal/generate"
)

// smokeBudget trains just enough to decode: every code path runs, in
// seconds rather than minutes.
var smokeBudget = budget{Epochs: 1, MaxSamples: 40, PretrainEpochs: 0, VerifyCap: 10}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0, // one round, or one timed request per client
		trace:    trace,
		budget:   "smoke",
		train:    smokeBudget,
		traceDir: t.TempDir(),
	}
}

// checkRecord asserts a run passed its own checks and reported exactly
// the wanted metrics, all finite.
func checkRecord(t *testing.T, rec *record, want []string) {
	t.Helper()
	r := rec.Result
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", r.Correct, r.Attempted, r.Failed, rec.Errors)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		case m.Unit == "":
			t.Errorf("metric %s has no unit", name)
		}
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several tiny pipelines")
	}
	var e2e, layers []string
	for _, m := range e2eUnits {
		e2e = append(e2e, m.name)
	}
	for _, m := range layerUnits {
		layers = append(layers, m.name)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rec, err := run(context.Background(), smokeOptions(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, e2e)
			for _, m := range []string{"setup_s", "fn_per_s", "op_p50_ms", "op_p99_ms", "rss_peak_mb"} {
				if v := rec.Result.Metrics[m].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
		})
	}
	// One traced run exercises every layer's harvesting: the serve
	// workload adds the repair coverage pass, and every Stage 1-3 span.
	t.Run("traced", func(t *testing.T) {
		opt := smokeOptions(t, serveFunctions, true)
		rec, err := run(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, rec, layers)
		b, err := os.ReadFile(filepath.Join(opt.traceDir, "serve-functions-seed7.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range []string{"bench/corpus.Build", "stage2/fit", "stage3/generate", "repair/function", "serve/generate", "bench/EncodeBatch"} {
			if !strings.Contains(string(b), `"name":"`+span+`"`) {
				t.Errorf("trace file has no %s span", span)
			}
		}
	})
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics a run prints in
// step: the same workloads, and the same metric names with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, workloads)
	}
	for _, tc := range []struct {
		list []named
		want []struct{ name, unit string }
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		if len(tc.list) != len(tc.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(tc.list), len(tc.want))
			continue
		}
		for i, m := range tc.list {
			if m.Name != tc.want[i].name || m.Unit != tc.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark prints %s (%s)",
					i, m.Name, m.Unit, tc.want[i].name, tc.want[i].unit)
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	opt, err := parseFlags([]string{"--workload", "serve-functions", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.workload != serveFunctions || opt.seed != 3 || opt.seconds != 10 || !opt.trace || opt.train != budgets["quick"] {
		t.Errorf("parsed %+v", opt)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "offline-generate", "--trace", "2"},
		{"--workload", "offline-generate", "--budget", "huge"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

// testBackend is a two-function backend with fixed statements.
func testBackend() *generate.Backend {
	fn := func(name string) *generate.Function {
		return &generate.Function{Name: name, Module: "EMI", Target: "RISCV", Statements: []generate.Statement{
			{Row: 0, Text: "unsigned " + name + "(unsigned Kind) {", Score: 1, Formula: 0.9},
			{Row: 1, Text: "return Kind;", Score: 0.75, Formula: 0.5},
			{Row: 2, Text: "}", Score: 1, Formula: 1},
		}}
	}
	return &generate.Backend{Target: "RISCV", Functions: []*generate.Function{fn("getRelocType"), fn("getFixupKind")}}
}

func TestOfflineCheckCatchesTamperedStatement(t *testing.T) {
	ref := newReference(false, []string{"RISCV"})
	var ph phase
	ref.check(testBackend(), &ph) // adopted as the reference
	ref.check(testBackend(), &ph)
	if ph.failed != 0 || ph.attempted != 4 || ph.fns != 4 {
		t.Fatalf("identical backends: %+v", ph)
	}
	tampered := testBackend()
	tampered.Functions[1].Statements[1].Text = "return 0;"
	ref.check(tampered, &ph)
	if ph.failed != 1 || ph.attempted != 6 {
		t.Fatalf("tampered statement: failed=%d attempted=%d, want 1 and 6", ph.failed, ph.attempted)
	}
	partial := testBackend()
	partial.Partial = true
	ref.check(partial, &ph)
	if ph.failed != 3 {
		t.Fatalf("partial backend: failed=%d, want 3", ph.failed)
	}
}

var (
	tinyOnce sync.Once
	tinyP    *core.Pipeline
	tinyErr  error
)

// tinyPipeline is one smoke-budget pipeline shared by the serve tests.
func tinyPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	tinyOnce.Do(func() {
		tinyP, _, tinyErr = setUp(context.Background(), pipelineConfig(smokeBudget, nil))
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyP
}

// TestServeCheckCatchesTamperingAndRejection drives the real server: a
// correct case passes, a case whose reference statement was tampered
// with fails, and a request the server sheds with 429 fails.
func TestServeCheckCatchesTamperingAndRejection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a tiny pipeline")
	}
	p := tinyPipeline(t)
	ref := newReference(false, []string{"RISCV"})
	offlinePhase(context.Background(), p, ref, 1, 0)
	cases, err := serveCases(ref)
	if err != nil {
		t.Fatal(err)
	}
	good := cases[0]

	fn := *ref.backends["RISCV"].Functions[0]
	fn.Statements = append([]generate.Statement(nil), fn.Statements...)
	fn.Statements[0].Text += " "
	tamperedWant, err := json.Marshal(wireFunction(&fn))
	if err != nil {
		t.Fatal(err)
	}
	tampered := serveCase{target: good.target, function: good.function, want: tamperedWant}

	for _, tc := range []struct {
		name   string
		c      serveCase
		reject bool
		failed int
	}{
		{"reference", good, false, 0},
		{"tampered reference statement", tampered, false, 2 * serveClients},
		{"forced 429", good, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.reject {
				faultinject.Arm(faultinject.ServeAdmitReject, tc.c.target)
				defer faultinject.Reset()
			}
			// seed 0 and a single case: every request is tc.c.
			ph, err := servePhase(context.Background(), p, nil, []serveCase{tc.c}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Two clients × (warm-up + one timed request); every reply
			// mismatches a tampered reference, and the armed fault fires
			// once.
			if ph.attempted != 2*serveClients || ph.failed != tc.failed {
				t.Fatalf("attempted=%d failed=%d (errors %v), want %d and %d",
					ph.attempted, ph.failed, ph.errs, 2*serveClients, tc.failed)
			}
			if tc.reject && !strings.Contains(strings.Join(ph.errs, ";"), "status 429") {
				t.Errorf("errors %v do not name the 429", ph.errs)
			}
		})
	}
}

func TestCheckResponse(t *testing.T) {
	fn := testBackend().Functions[0]
	want, err := json.Marshal(wireFunction(fn))
	if err != nil {
		t.Fatal(err)
	}
	c := serveCase{target: "RISCV", function: fn.Name, want: want}
	body := []byte(`{"target":"RISCV","degraded":false,"functions":[` + string(want) + `]}`)
	if err := checkResponse(http.StatusOK, body, c); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		status int
		body   string
	}{
		"non-200":  {http.StatusGatewayTimeout, string(body)},
		"degraded": {http.StatusOK, strings.Replace(string(body), `"degraded":false`, `"degraded":true`, 1)},
		"changed":  {http.StatusOK, strings.Replace(string(body), "return Kind;", "return 0;", 1)},
		"empty":    {http.StatusOK, `{"degraded":false,"functions":[]}`},
	} {
		if err := checkResponse(tc.status, []byte(tc.body), c); err == nil {
			t.Errorf("%s reply accepted", name)
		}
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec record) string {
		path := filepath.Join(dir, name)
		if err := emit(&strings.Builder{}, &rec, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := record{Host: hostFingerprint(1), Workload: offlineGenerate, Budget: "quick", Seconds: 10,
		Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"fn_per_s": {Value: 60, Unit: "fn/s"}}}}
	same := base
	same.Result.Metrics = map[string]metric{"fn_per_s": {Value: 66, Unit: "fn/s"}}
	otherHost := base
	otherHost.Host.CPU = "some other CPU"
	otherSeed := base
	otherSeed.Host.Seed = 2

	var out, errOut strings.Builder
	if code := compareMain([]string{write("a.json", base), write("b.json", same)}, &out, &errOut); code != 0 {
		t.Fatalf("same fingerprint: exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "+10.0%") {
		t.Errorf("compare output lacks the change:\n%s", out.String())
	}
	for name, rec := range map[string]record{"host": otherHost, "seed": otherSeed} {
		errOut.Reset()
		if code := compareMain([]string{write("a.json", base), write(name+".json", rec)}, &out, &errOut); code != 2 {
			t.Errorf("different %s: exit %d, want 2", name, code)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.99); math.Abs(q-4.96) > 1e-9 {
		t.Errorf("p99 = %v", q)
	}
	// 10 observations in (1, 2], none elsewhere: the median sits mid-bucket.
	if q := histQuantile([]float64{1, 2, 4}, []uint64{0, 10, 0, 0}, 0.5); q != 1.5 {
		t.Errorf("histogram median = %v", q)
	}
}
