package main

import (
	"math"
	"sort"
)

// phase is what one measured stretch of a workload produced.
type phase struct {
	attempted, failed int
	// fns counts functions delivered correctly.
	fns int
	// lat holds one latency per operation, in seconds: a whole backend
	// offline, one request when serving.
	lat []float64
	// rates holds functions delivered per second over successive windows
	// of the phase: a round of backends offline, one pass over the cases
	// when serving. The phase's rate is their median, which discards
	// bursts of interference from other tenants of the host.
	rates []float64
	// errs keeps the first few failures for the record.
	errs []string
}

func (ph *phase) fail(msg string) {
	ph.failed++
	ph.note(msg)
}

func (ph *phase) note(msg string) {
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, msg)
	}
}

// add merges o's counts, latencies and failures into ph (rates
// excluded: they describe one wall-clock stretch).
func (ph *phase) add(o phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.fns += o.fns
	ph.lat = append(ph.lat, o.lat...)
	for _, e := range o.errs {
		ph.note(e)
	}
}

// rate is the median of the window rates, in functions per second.
func (ph phase) rate() float64 { return quantile(ph.rates, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket that holds it; bounds are the
// buckets' upper limits and counts has one overflow slot more. The
// estimate is only as fine as the bucket it falls in.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i == len(bounds) {
				return lo // overflow bucket: no upper limit to interpolate to
			}
			return lo + (rank-seen)/float64(c)*(bounds[i]-lo)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}
