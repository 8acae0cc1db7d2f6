package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"vega/internal/core"
	"vega/internal/model"
	"vega/internal/obs"
	"vega/internal/repair"
)

// coverServeSeconds is the serve traffic a traced run of an offline
// workload adds so that every serve-layer metric is measured.
const coverServeSeconds = 2

// layerUnits lists the per-layer metrics of a traced run, with units.
// Where the workload itself does not exercise a layer (repair offline
// without verify, serve on the offline workloads) the traced run adds a
// short pass that does: one verified RISCV backend, or coverServeSeconds
// of serve traffic.
var layerUnits = []struct{ name, unit string }{
	{"corpus.build_s", "s"},
	{"stage1.templatize_s", "s"},
	{"stage1.groups", "count"},
	{"stage2.pretrain_s", "s"},
	{"stage2.fit_s", "s"},
	{"stage2.verify_s", "s"},
	{"fit.samples_per_s", "1/s"},
	{"fit.retried_epochs", "count"},
	{"stage3.prepass_s", "s"},
	{"stage3.fn_decode_ms.p50", "ms"},
	{"stage3.fn_decode_ms.p90", "ms"},
	{"stage3.pool_wait_ms", "ms"},
	{"stage3.quant_fallback_ratio", "ratio"},
	{"feature.target_values_ms", "ms"},
	{"model.encode_us_per_row.b128.f32", "us"},
	{"model.encode_us_per_row.fn.int8", "us"},
	{"model.decode_us_per_token.f32", "us"},
	{"model.decode_us_per_token.int8", "us"},
	{"model.tokens_per_row", "count"},
	{"repair.s_per_backend", "s"},
	{"repair.oracle_ms_per_call", "ms"},
	{"repair.attempted", "count"},
	{"repair.passed", "count"},
	{"repair.repaired", "count"},
	{"repair.failed", "count"},
	{"repair.candidates_tried", "count"},
	{"repair.yield", "ratio"},
	{"repair.tries_per_diverging", "count"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.job_ms.p50", "ms"},
	{"serve.overhead_ms.p50", "ms"},
	{"serve.admitted", "count"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"serve.deadline_hits", "count"},
	{"mem.alloc_mb_per_fn", "MB"},
	{"mem.mallocs_per_fn", "count"},
	{"gc.pause_ms_per_s", "ms/s"},
	{"trace_overhead.setup_s", "s"},
	{"trace_overhead.rss_peak_mb", "MB"},
	{"trace_overhead.fn_per_s", "fn/s"},
	{"trace_overhead.op_p50_ms", "ms"},
	{"trace_overhead.op_p99_ms", "ms"},
	{"trace_overhead.pass1", "%"},
}

// tracer keeps every span and metric of the traced pipeline in memory.
type tracer struct {
	sink *obs.MemSink
	o    *obs.Obs
}

// mark is a position in the trace: spans ended and metric values so far.
type mark struct {
	spans   int
	metrics map[string]obs.Metric
}

func (t *tracer) mark() mark {
	m := mark{spans: len(t.sink.Spans()), metrics: map[string]obs.Metric{}}
	for _, x := range t.o.Snapshot() {
		m.metrics[x.Name] = x
	}
	return m
}

// window is the part of the trace between two marks.
type window struct {
	spans         []obs.SpanData
	before, after map[string]obs.Metric
}

func (t *tracer) since(from mark) window {
	to := t.mark()
	return window{spans: t.sink.Spans()[from.spans:to.spans], before: from.metrics, after: to.metrics}
}

func (w window) named(name string) []obs.SpanData {
	var out []obs.SpanData
	for _, s := range w.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the durations of the window's spans called name.
func (w window) seconds(name string) float64 {
	var sum float64
	for _, s := range w.named(name) {
		sum += s.Dur.Seconds()
	}
	return sum
}

// counter is a counter's (or gauge's) change over the window.
func (w window) counter(name string) float64 {
	return w.after[name].Value - w.before[name].Value
}

// hist is a histogram's bucket counts, sum and count over the window.
func (w window) hist(name string) (bounds []float64, counts []uint64, sum float64, n uint64) {
	a, b := w.after[name], w.before[name]
	counts = append([]uint64(nil), a.Counts...)
	for i := range b.Counts {
		counts[i] -= b.Counts[i]
	}
	return a.Bounds, counts, a.Value - b.Value, a.Count - b.Count
}

func (w window) histQuantileMS(name string, q float64) float64 {
	bounds, counts, _, _ := w.hist(name)
	if len(bounds) == 0 {
		return 0
	}
	return 1000 * histQuantile(bounds, counts, q)
}

func (w window) histMeanMS(name string) float64 {
	_, _, sum, n := w.hist(name)
	if n == 0 {
		return 0
	}
	return 1000 * sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun measures the workload twice, untraced and then traced on a
// second pipeline built with an in-memory observer, and reports every
// per-layer metric plus the tracing overhead on each end-to-end metric.
// All outputs, traced or not, are checked against the untraced
// pipeline's references.
func tracedRun(ctx context.Context, opt options, rec *record, all *phase) (map[string]float64, map[string]string, error) {
	p0, s0, err := setUp(ctx, pipelineConfig(opt.train, nil))
	if err != nil {
		return nil, nil, err
	}
	logf("untraced set-up: %.2fs", s0)
	bn, warm, err := prepare(ctx, opt.workload, p0, opt.seed)
	all.add(warm)
	if err != nil {
		return nil, nil, err
	}
	// The repair coverage pass is checked against p0 too.
	verifyRef := bn.ref
	if opt.workload != offlineVerify {
		verifyRef = newReference(true, []string{"RISCV"})
		all.add(offlinePhase(ctx, p0, verifyRef, opt.seed, 0))
	}

	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	var ph0 phase
	mem := measureMem(func() { ph0, err = bn.measure(ctx, p0, nil, opt.seed, opt.seconds) })
	all.add(ph0)
	if err != nil {
		return nil, nil, err
	}
	rss0, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	untraced := endToEnd(s0, rss0, ph0, bn.ref.pass1)
	maps.Copy(rec.Details, bn.ref.details)
	runtime.GC() // p0 is done with: its garbage must not slow the traced set-up

	tr := &tracer{sink: &obs.MemSink{}}
	tr.o = obs.New(tr.sink)
	tctx := obs.With(ctx, tr.o)
	start := tr.mark()
	p1, s1, err := setUp(tctx, pipelineConfig(opt.train, tr.o))
	if err != nil {
		return nil, nil, err
	}
	logf("traced set-up: %.2fs", s1)
	setupWin := tr.since(start)

	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	m := tr.mark()
	ph1, err := bn.measure(tctx, p1, tr.o, opt.seed, opt.seconds)
	all.add(ph1)
	if err != nil {
		return nil, nil, err
	}
	workWin := tr.since(m)
	rss1, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	// Traced outputs are checked equal to the untraced references, so
	// pass@1 is the same by construction.
	traced := endToEnd(s1, rss1, ph1, bn.ref.pass1)

	repairWin, serveWin, servePh := workWin, workWin, ph1
	if opt.workload != offlineVerify {
		m = tr.mark()
		all.add(offlinePhase(tctx, p1, verifyRef, opt.seed, 0))
		repairWin = tr.since(m)
	}
	if opt.workload != serveFunctions {
		m = tr.mark()
		servePh, err = servePhase(tctx, p1, tr.o, bn.cases, opt.seed, coverServeSeconds)
		all.add(servePh)
		if err != nil {
			return nil, nil, err
		}
		serveWin = tr.since(m)
	}

	v := map[string]float64{}
	setupLayers(v, setupWin)
	stage3Layers(v, workWin, serveWin)
	repairLayers(v, repairWin)
	serveLayers(v, serveWin, servePh)
	fns := float64(max(ph0.fns, 1))
	v["mem.alloc_mb_per_fn"] = mem.allocMB / fns
	v["mem.mallocs_per_fn"] = mem.mallocs / fns
	v["gc.pause_ms_per_s"] = ratio(mem.pauseMS, mem.seconds)
	for name, x := range untraced {
		v["trace_overhead."+name] = traced[name] - x
	}
	if err := microLayers(tctx, v, p1, bn.plain); err != nil {
		return nil, nil, err
	}
	if err := writeTrace(opt, tr); err != nil {
		return nil, nil, err
	}

	units := map[string]string{}
	for _, l := range layerUnits {
		units[l.name] = l.unit
		if _, ok := v[l.name]; !ok {
			return nil, nil, fmt.Errorf("traced run did not produce %s", l.name)
		}
	}
	return v, units, nil
}

// setupLayers attributes the traced set-up to corpus, Stage 1 and Stage 2.
func setupLayers(v map[string]float64, w window) {
	v["corpus.build_s"] = w.seconds("bench/corpus.Build")
	v["stage1.templatize_s"] = w.seconds("stage1/templatize")
	v["stage1.groups"] = w.after["stage1.groups"].Value
	v["stage2.pretrain_s"] = w.seconds("stage2/pretrain")
	v["stage2.fit_s"] = w.seconds("stage2/fit")
	v["stage2.verify_s"] = w.seconds("stage2/verify")
	v["fit.retried_epochs"] = w.counter("fit.retried_epochs")
	// Fine-tuning throughput: samples × epochs run under stage2/fit.
	var samples, secs float64
	for _, fit := range w.named("stage2/fit") {
		n, _ := strconv.Atoi(attr(fit, "samples"))
		for _, ep := range w.named("fit/epoch") {
			if ep.Parent == fit.ID {
				samples += float64(n)
			}
		}
		secs += fit.Dur.Seconds()
	}
	v["fit.samples_per_s"] = ratio(samples, secs)
}

// stage3Layers reads Stage 3 from the workload's window; the int8
// fallback ratio comes from serve traffic, the only int8 path.
func stage3Layers(v map[string]float64, w, serveWin window) {
	gens := w.named("stage3/generate")
	var prepass float64
	for _, g := range gens {
		var children []obs.SpanData
		for _, f := range w.named("stage3/function") {
			if f.Parent == g.ID {
				children = append(children, f)
			}
		}
		prepass += g.Dur.Seconds() - covered(children)
	}
	v["stage3.prepass_s"] = ratio(prepass, float64(len(gens)))
	v["stage3.fn_decode_ms.p50"] = w.histQuantileMS("gen.decode_seconds", 0.50)
	v["stage3.fn_decode_ms.p90"] = w.histQuantileMS("gen.decode_seconds", 0.90)
	v["stage3.pool_wait_ms"] = w.histMeanMS("gen.queue_wait_seconds")
	v["stage3.quant_fallback_ratio"] = ratio(serveWin.counter("gen.quant_fallbacks"), serveWin.counter("gen.quant_decodes"))
}

// covered is the length, in seconds, of the union of the spans' intervals.
func covered(spans []obs.SpanData) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var end time.Time
	for _, s := range spans {
		s0, s1 := s.Start, s.Start.Add(s.Dur)
		if s0.Before(end) {
			s0 = end
		}
		if s1.After(s0) {
			total += s1.Sub(s0)
			end = s1
		}
	}
	return total.Seconds()
}

func repairLayers(v map[string]float64, w window) {
	v["repair.s_per_backend"] = ratio(w.seconds("repair/function"), float64(len(w.named("stage3/generate"))))
	for _, c := range []string{"attempted", "passed", "repaired", "failed", "candidates_tried"} {
		v["repair."+c] = w.counter("repair." + c)
	}
	diverging := v["repair.repaired"] + v["repair.failed"]
	v["repair.yield"] = ratio(v["repair.repaired"], diverging)
	v["repair.tries_per_diverging"] = ratio(v["repair.candidates_tried"], diverging)
}

func serveLayers(v map[string]float64, w window, ph phase) {
	v["serve.queue_wait_ms.p50"] = w.histQuantileMS("serve.queue_wait_seconds", 0.50)
	v["serve.queue_wait_ms.p99"] = w.histQuantileMS("serve.queue_wait_seconds", 0.99)
	v["serve.job_ms.p50"] = w.histQuantileMS("serve.job_seconds", 0.50)
	var handler []float64
	for _, s := range w.named("serve/generate") {
		handler = append(handler, s.Dur.Seconds())
	}
	v["serve.overhead_ms.p50"] = 1000 * (quantile(ph.lat, 0.5) - quantile(handler, 0.5))
	for _, c := range []string{"admitted", "rejected", "degraded", "deadline_hits"} {
		v["serve."+c] = w.counter("serve." + c)
	}
}

// microReps is how many times each layer timing repeats; the fastest
// repetition counts, as interference from other tenants only slows.
const microReps = 3

// bestOf runs f microReps times and returns its smallest result.
func bestOf(f func() float64) float64 {
	best := f()
	for i := 1; i < microReps; i++ {
		best = min(best, f())
	}
	return best
}

// microLayers times single layers from outside, through their public
// calls: feature resolution, the repair oracle, and the model's encoder
// and decoder. It runs last because TrainingData rebuilds p's
// vocabulary (to an identical one).
func microLayers(ctx context.Context, v map[string]float64, p *core.Pipeline, ref *reference) error {
	// feature: one TargetValues per group and evaluation target.
	v["feature.target_values_ms"] = bestOf(func() float64 {
		t0 := time.Now()
		for _, g := range p.Groups {
			for _, t := range ref.targets {
				_ = spanned(ctx, "bench/TargetValues", func(context.Context) error {
					p.Extractor.TargetValues(g.TF, t)
					return nil
				})
			}
		}
		return 1000 * time.Since(t0).Seconds() / float64(len(p.Groups)*len(ref.targets))
	})

	// repair oracle: one Verify per reference function.
	oracles := map[string]*repair.Oracle{}
	for _, t := range ref.targets {
		rb, err := p.ReferenceBackend(t)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		oracles[t] = &repair.Oracle{Ref: rb}
	}
	v["repair.oracle_ms_per_call"] = bestOf(func() float64 {
		calls := 0
		t0 := time.Now()
		for _, t := range ref.targets {
			for _, fn := range ref.backends[t].Functions {
				_ = spanned(ctx, "bench/Oracle.Verify", func(context.Context) error {
					oracles[t].Verify(fn)
					return nil
				})
				calls++
			}
		}
		return 1000 * time.Since(t0).Seconds() / float64(calls)
	})

	// model: 128 Stage 2 inputs, encoded as one 128-row batch (the
	// offline pre-pass chunk) or in batches of a mean function's rows
	// (a serve request), then decoded row by row.
	tm, ok := p.Model.(*model.Transformer)
	if !ok {
		return fmt.Errorf("model layer: %T is not a transformer", p.Model)
	}
	var inputs [][]int
	for _, s := range p.TrainingData() {
		if len(inputs) == 128 {
			break
		}
		inputs = append(inputs, s.Input)
	}
	rows := 0
	for _, g := range p.Groups {
		rows += len(g.FT.Rows)
	}
	fnBatch := max(1, (rows+len(p.Groups)/2)/len(p.Groups))
	encode := func(batch int, quant bool) (mems [][]float32, usPerRow float64) {
		usPerRow = bestOf(func() float64 {
			mems = mems[:0]
			t0 := time.Now()
			for lo := 0; lo < len(inputs); lo += batch {
				hi := min(lo+batch, len(inputs))
				_ = spanned(ctx, "bench/EncodeBatch", func(context.Context) error {
					mems = append(mems, tm.EncodeBatch(inputs[lo:hi], quant)...)
					return nil
				}, obs.Int("rows", hi-lo), obs.String("int8", strconv.FormatBool(quant)))
			}
			return 1e6 * time.Since(t0).Seconds() / float64(len(inputs))
		})
		return mems, usPerRow
	}
	decode := func(mems [][]float32, quant bool) (usPerStep, tokensPerRow float64) {
		maxLen := p.Cfg.MaxOutPieces
		usPerStep = bestOf(func() float64 {
			steps, tokens := 0, 0
			t0 := time.Now()
			for _, mem := range mems {
				_ = spanned(ctx, "bench/GenerateFromDecoder", func(context.Context) error {
					out := tm.GenerateFromDecoder(tm.NewIncrementalDecoderFromMemory(mem, quant), maxLen)
					tokens += len(out)
					steps += len(out)
					if len(out) < maxLen {
						steps++ // the step that produced EOS
					}
					return nil
				}, obs.String("int8", strconv.FormatBool(quant)))
			}
			tokensPerRow = float64(tokens) / float64(len(mems))
			return 1e6 * time.Since(t0).Seconds() / float64(steps)
		})
		return usPerStep, tokensPerRow
	}
	memF32, usF32 := encode(128, false)
	memI8, usI8 := encode(fnBatch, true)
	v["model.encode_us_per_row.b128.f32"] = usF32
	v["model.encode_us_per_row.fn.int8"] = usI8
	v["model.decode_us_per_token.f32"], v["model.tokens_per_row"] = decode(memF32, false)
	v["model.decode_us_per_token.int8"], _ = decode(memI8, true)
	return nil
}

func attr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// writeTrace writes every span, then the final metric snapshot, as JSON
// lines to <trace-dir>/<workload>-seed<seed>.jsonl.
func writeTrace(opt options, tr *tracer) error {
	if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.sink.Spans() {
		if err := enc.Encode(struct {
			Span obs.SpanData `json:"span"`
		}{s}); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := enc.Encode(struct {
		Metrics []obs.Metric `json:"metrics"`
	}{tr.o.Snapshot()}); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	logf("wrote %d spans to %s", len(tr.sink.Spans()), path)
	return nil
}
