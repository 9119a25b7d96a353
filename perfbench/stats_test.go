package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	cases := []struct {
		pct        int
		want       float64
		wantBeyond int
	}{
		{50, 100, 100},
		{95, 190, 10},
		{99, 198, 2},
		{100, 200, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(samples, c.pct)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%d of 1..200 = %v with %d beyond, want %v with %d", c.pct, got, beyond, c.want, c.wantBeyond)
		}
	}
}

func TestPercentileTailNeedsTwoHundredSamples(t *testing.T) {
	// The tail rule: minBeyond samples must lie beyond the reported tail
	// percentile. 199 samples leave only 9 beyond p95; 200 leave 10.
	for n, ok := range map[int]bool{199: false, 200: true, 260: true} {
		s := make([]float64, n)
		_, beyond := percentile(s, tailPct)
		if (beyond >= minBeyond) != ok {
			t.Errorf("n=%d: %d beyond p%d, want enough=%v", n, beyond, tailPct, ok)
		}
	}
}

func TestPercentileSmall(t *testing.T) {
	if v, beyond := percentile([]float64{7}, 95); v != 7 || beyond != 0 {
		t.Errorf("single sample: %v, %d", v, beyond)
	}
	if v, beyond := percentile([]float64{1, 2, 3, 4}, 50); v != 2 || beyond != 2 {
		t.Errorf("p50 of 1..4: %v, %d", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	in := []float64{4, 1, 3, 2}
	if m := median(in); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestMixCheckFindsGaps(t *testing.T) {
	// 100 samples: 60 of a fast op at 10-11 ms, 40 of a slow op whose
	// samples spread from 30 ms up, each 5% above the last. p50 sits inside the fast cluster;
	// p60 is its last sample, right beside the gap; p95 lies among the
	// slow op's samples, which spread more than mixSpread but are one op.
	var s []sample
	for i := 0; i < 60; i++ {
		s = append(s, sample{10 + float64(i)/60, "fast"})
	}
	for i := 0; i < 40; i++ {
		s = append(s, sample{30 * math.Pow(1.05, float64(i)), "slow"})
	}
	cases := []struct {
		pct     int
		wantOps int
		wantGap bool
	}{
		{50, 1, false},
		{60, 2, true},
		{95, 1, false},
	}
	for _, c := range cases {
		spread, ops, gap := mixCheck(s, c.pct)
		if len(ops) != c.wantOps || gap != c.wantGap {
			t.Errorf("p%d: spread %.3f over %v, gap %v; want %d ops, gap %v", c.pct, spread, ops, gap, c.wantOps, c.wantGap)
		}
	}
	if spread, _, _ := mixCheck(s, 95); spread <= mixSpread {
		t.Errorf("p95 spread %.3f, want the slow op's own spread above %v", spread, mixSpread)
	}
}
