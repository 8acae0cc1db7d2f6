// Command perfbench is the repository's benchmark. Each run builds the
// VEGA pipeline the way a user does (corpus → Stage 1 → Stage 2), then
// measures one workload over it for a fixed time and checks every output
// against an independent reference:
//
//	offline-generate  whole-backend Stage 3 for RISCV, RI5CY and XCore
//	offline-verify    the same three backends with verify-and-repair
//	serve-functions   a closed-loop vega-serve client mix, one function
//	                  per request, over loopback HTTP
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload offline-generate --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.json new.json
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record (host fingerprint, seed, details), which --record also
// writes to a file for the compare mode. README.md lists every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Workload names, as BENCHMARK.json lists them.
const (
	offlineGenerate = "offline-generate"
	offlineVerify   = "offline-verify"
	serveFunctions  = "serve-functions"
)

var workloads = []string{offlineGenerate, offlineVerify, serveFunctions}

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	budget   string // name of train
	train    budget
	record   string
	traceDir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rec, opt.record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: target order and the serve request draw")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	fs.StringVar(&opt.budget, "budget", "quick", "training budget: quick (the benchmark's) or bench (bench_test.go's sharedFixture)")
	fs.StringVar(&opt.record, "record", "", "also write the full record (result plus host fingerprint) to this file")
	fs.StringVar(&opt.traceDir, "trace-dir", ".bench_build/perfbench-trace", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	switch {
	case !slices.Contains(workloads, opt.workload):
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloads, ", "))
	case trace != 0 && trace != 1:
		return opt, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	case opt.seconds < 0:
		return opt, errors.New("--seconds must not be negative")
	}
	train, ok := budgets[opt.budget]
	if !ok {
		return opt, fmt.Errorf("unknown budget %q", opt.budget)
	}
	opt.train = train
	opt.trace = trace == 1
	return opt, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result plus everything needed to judge whether two results
// may be compared at all.
type record struct {
	Host     fingerprint        `json:"host"`
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Budget   string             `json:"budget"`
	Seconds  float64            `json:"seconds"`
	Details  map[string]float64 `json:"details,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
	Result   result             `json:"result"`
}

// emit prints the record line and then the result line, and writes the
// record file when asked.
func emit(w io.Writer, rec *record, path string) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	if path != "" {
		if dir := filepath.Dir(path); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}
