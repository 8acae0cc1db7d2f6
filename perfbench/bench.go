package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"runtime"
	"time"

	"vega"
	"vega/internal/core"
	"vega/internal/obs"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median. The last pipeline built serves the workload.
const setupRepeats = 2

// e2eUnits lists the end-to-end metrics, every one reported by every
// workload (README.md maps them to each workload's meaning).
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"fn_per_s", "fn/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"pass1", "%"},
}

// bench is a workload ready to measure. Its plain reference — one
// untimed float32 round over the evaluation targets, which also fills
// the pipeline's lazy caches — is built from the run's first pipeline.
type bench struct {
	name  string
	plain *reference
	// ref is what the measured phase is checked against: the plain
	// reference, or for offline-verify a verified one that the phase's
	// own first round fills.
	ref   *reference
	cases []serveCase // serve-functions only
}

func prepare(ctx context.Context, name string, p *core.Pipeline, seed int64) (*bench, phase, error) {
	plain := newReference(false, vega.EvalTargets())
	ph := offlinePhase(ctx, p, plain, seed, 0)
	plain.score(ctx, p)
	bn := &bench{name: name, plain: plain, ref: plain}
	if name == offlineVerify {
		bn.ref = newReference(true, plain.targets)
	}
	var err error
	bn.cases, err = serveCases(plain)
	return bn, ph, err
}

// measure runs the workload's measured phase on p, traced when o is set.
// p must produce exactly the outputs of the pipeline prepare saw.
func (bn *bench) measure(ctx context.Context, p *core.Pipeline, o *obs.Obs, seed int64, seconds float64) (phase, error) {
	ctx = obs.With(ctx, o)
	if bn.name == serveFunctions {
		return servePhase(ctx, p, o, bn.cases, seed, seconds)
	}
	fresh := len(bn.ref.backends) == 0
	ph := offlinePhase(ctx, p, bn.ref, seed, seconds)
	if fresh {
		bn.ref.score(ctx, p)
	}
	return ph, nil
}

// endToEnd computes the end-to-end metrics of one measured phase.
func endToEnd(setupS, rssMB float64, ph phase, pass1 float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     setupS,
		"rss_peak_mb": rssMB,
		"fn_per_s":    ph.rate(),
		"op_p50_ms":   1000 * quantile(ph.lat, 0.50),
		"op_p99_ms":   1000 * quantile(ph.lat, 0.99),
		"pass1":       pass1,
	}
}

func run(ctx context.Context, opt options) (*record, error) {
	rec := &record{
		Host:     hostFingerprint(opt.seed),
		Workload: opt.workload,
		Trace:    opt.trace,
		Budget:   opt.budget,
		Seconds:  opt.seconds,
		Details:  map[string]float64{},
	}
	var (
		values map[string]float64
		units  map[string]string
		all    phase
		err    error
	)
	if opt.trace {
		values, units, err = tracedRun(ctx, opt, rec, &all)
	} else {
		values, err = untracedRun(ctx, opt, rec, &all)
		units = map[string]string{}
		for _, m := range e2eUnits {
			units[m.name] = m.unit
		}
	}
	if err != nil {
		return nil, err
	}
	rec.Errors = all.errs
	rec.Result = result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	for name, v := range values {
		rec.Result.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return rec, nil
}

// untracedRun sets up setupRepeats times and measures the workload on
// the last pipeline, with observability off.
func untracedRun(ctx context.Context, opt options, rec *record, all *phase) (map[string]float64, error) {
	var (
		setups []float64
		p      *core.Pipeline
	)
	for i := 0; i < setupRepeats; i++ {
		// Collect the previous pipeline first: a user's process sets up
		// once, so its garbage must not inflate the next set-up's peak.
		p = nil
		runtime.GC()
		next, s, err := setUp(ctx, pipelineConfig(opt.train, nil))
		if err != nil {
			return nil, err
		}
		p = next
		setups = append(setups, s)
		rec.Details[fmt.Sprintf("setup_s.%d", i)] = s
		logf("set-up %d: %.2fs", i+1, s)
	}
	bn, warm, err := prepare(ctx, opt.workload, p, opt.seed)
	all.add(warm)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	ph, err := bn.measure(ctx, p, nil, opt.seed, opt.seconds)
	all.add(ph)
	if err != nil {
		return nil, err
	}
	maps.Copy(rec.Details, bn.ref.details)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.Details["operations"] = float64(len(ph.lat))
	logf("%s: %d operations, %d/%d failed", opt.workload, len(ph.lat), all.failed, all.attempted)
	return endToEnd(quantile(setups, 0.5), rss, ph, bn.ref.pass1), nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// memDelta is the Go runtime's allocation and GC work over a phase.
type memDelta struct{ allocMB, mallocs, pauseMS, seconds float64 }

func measureMem(f func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&b)
	return memDelta{
		allocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs: float64(b.Mallocs - a.Mallocs),
		pauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
		seconds: secs,
	}
}
