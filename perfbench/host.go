package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host and inputs a result was measured on.
// Two results are comparable only when their fingerprints are equal:
// the same kernels run ~2.4× apart on different hosts.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compareMain implements `perfbench compare BASE NEW`: it prints each
// metric of two records side by side, and refuses (exit 2) when the
// records were measured on different hosts, seeds or settings.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := mismatch(recs[0], recs[1]); err != nil {
		fmt.Fprintln(stderr, "perfbench compare: refused:", err)
		return 2
	}
	base, cur := recs[0].Result.Metrics, recs[1].Result.Metrics
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-36s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, name := range names {
		b, n := base[name].Value, cur[name].Value
		change := "n/a"
		if b != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n-b)/b)
		}
		fmt.Fprintf(stdout, "%-36s %14.4f %14.4f %9s  %s\n", name, b, n, change, base[name].Unit)
	}
	return 0
}

// mismatch reports why two records must not be compared, or nil.
func mismatch(a, b record) error {
	switch {
	case a.Host != b.Host:
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Host, b.Host)
	case a.Workload != b.Workload:
		return fmt.Errorf("workloads differ: %s vs %s", a.Workload, b.Workload)
	case a.Trace != b.Trace || a.Budget != b.Budget || a.Seconds != b.Seconds:
		return fmt.Errorf("settings differ: trace %v/%v, budget %s/%s, seconds %g/%g",
			a.Trace, b.Trace, a.Budget, b.Budget, a.Seconds, b.Seconds)
	}
	return nil
}
