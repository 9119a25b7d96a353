package main

import (
	"math"
	"sort"
)

// tailPct is the tail percentile every workload reports. minBeyond is
// how many samples must lie beyond it for the tail to be measured rather
// than read off a handful of outliers; with 200 samples the 95th
// percentile leaves exactly 10 beyond it.
const (
	tailPct   = 95
	minBeyond = 10
)

// percentile returns the nearest-rank pct-th percentile (pct in 1..100)
// of ascending samples, and how many samples rank strictly above it.
// Integer rank arithmetic keeps 95% of 200 at rank 190, not 191.
func percentile(sorted []float64, pct int) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := (pct*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// median returns the middle value of samples (mean of the middle two for
// an even count); samples are not modified.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of samples (0 for none).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// The mix rule: op weights are chosen so that p50 and p95 each fall
// inside a cluster of samples, never next to a gap between two ops'
// latency bands. The multiset of ops is fixed, so run-to-run noise moves
// a percentile only by letting a few samples trade ranks; a percentile
// beside a gap jumps across it when that happens. mixWindow is the
// share of samples on each side of the percentile's rank that may trade
// places. The percentile sits on a gap when those neighbours come from
// more than one op and lie more than mixSpread of the percentile apart;
// one op's own samples spread by noise make no gap.
const (
	mixWindow = 0.01
	mixSpread = 0.10
)

// sample is one timed op: its latency and the op's name.
type sample struct {
	ms float64
	op string
}

// mixCheck looks at the nearest-rank pct-th percentile of samples sorted
// by latency. It returns the distance between the samples mixWindow of
// the ranks below and above it (at least two ranks each way), as a
// share of the percentile, the ops those neighbouring samples come from,
// and whether the percentile sits on a gap.
func mixCheck(sorted []sample, pct int) (spread float64, ops []string, gap bool) {
	n := len(sorted)
	rank := (pct*n + 99) / 100
	k := max(2, int(mixWindow*float64(n)+0.5))
	lo, hi := max(0, rank-1-k), min(n-1, rank-1+k)
	seen := map[string]bool{}
	for _, s := range sorted[lo : hi+1] {
		if !seen[s.op] {
			seen[s.op] = true
			ops = append(ops, s.op)
		}
	}
	sort.Strings(ops)
	spread = (sorted[hi].ms - sorted[lo].ms) / sorted[rank-1].ms
	return spread, ops, len(ops) > 1 && spread > mixSpread
}
