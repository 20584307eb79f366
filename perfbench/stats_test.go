package main

import (
	"testing"
	"time"
)

// TestTailPercentileRule checks that the reported tail has at least
// minBeyond samples above it, is the highest such sample up to p99,
// and falls back to the median when too few samples exist.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int
		wantPct float64
	}{
		{1, 0, 50},
		{10, 5, 50},
		{11, 5, 50},      // only the lowest sample has ten above it: floor at the median
		{100, 89, 90},    // 10 beyond
		{400, 389, 97.5}, // 10 beyond
		{1000, 989, 99},  // 10 beyond, and p99
		{5000, 4949, 99}, // capped at p99: 50 beyond
	} {
		samples := make([]time.Duration, tc.n)
		for i := range samples {
			samples[len(samples)-1-i] = time.Duration(i) // reverse order: Summarize must sort
		}
		s := Summarize(samples)
		if s.N != tc.n || s.Tail != time.Duration(tc.wantIdx) || s.TailPct != tc.wantPct {
			t.Errorf("n=%d: tail %d at p%v, want %d at p%v", tc.n, s.Tail, s.TailPct, tc.wantIdx, tc.wantPct)
		}
		if beyond := tc.n - 1 - int(s.Tail); tc.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
		if s.P50 != time.Duration(tc.n/2) {
			t.Errorf("n=%d: p50 %d, want %d", tc.n, s.P50, tc.n/2)
		}
	}
	if s := Summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestMedianF(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := medianF([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

// TestWindows checks streams are cut into at most ten windows of at
// least minWindow samples, and that one stalled window does not move
// the reported medians.
func TestWindows(t *testing.T) {
	for n, want := range map[int]int{50: 1, 250: 2, 499: 4, 1200: 10, 5000: 10} {
		ws := split(make([]time.Duration, n))
		total := 0
		for _, w := range ws {
			total += len(w)
			if n >= minWindow && len(w) < minWindow {
				t.Errorf("n=%d: window of %d samples", n, len(w))
			}
		}
		if len(ws) != want || total != n {
			t.Errorf("n=%d: %d windows holding %d samples, want %d windows", n, len(ws), total, want)
		}
	}
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Millisecond
		if i < 100 {
			samples[i] = time.Second // the first window stalled throughout
		}
	}
	w := SummarizeWindows(split(samples))
	if w.P50 != time.Millisecond || w.Tail != time.Millisecond || w.N != 1000 {
		t.Errorf("one stalled window moved the medians: %+v", w)
	}
}
