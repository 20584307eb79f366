package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// tail percentile: a percentile read off fewer samples than that is
// one or two outliers, not a distribution.
const minBeyond = 10

// Summary is one latency distribution reduced to what the benchmark
// reports: the median, the highest percentile with at least minBeyond
// samples beyond it, and the sample count.
type Summary struct {
	N       int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // the percentile Tail reports, e.g. 99 or 97.5
}

// tailRank returns the 0-based index of the tail sample in a sorted
// slice of n samples and the percentile it stands for: the largest
// index with at least minBeyond samples above it, capped at p99 so a
// very long run does not report ever thinner tails. With fewer than
// minBeyond+1 samples there is no such index and the median is used.
func tailRank(n int) (int, float64) {
	if n <= minBeyond {
		return n / 2, 50
	}
	i := n - minBeyond - 1
	if cap99 := int(math.Ceil(0.99*float64(n))) - 1; cap99 < i {
		i = cap99
	}
	if i < n/2 {
		return n / 2, 50
	}
	return i, 100 * float64(i+1) / float64(n)
}

// Summarize sorts a copy of the samples and reduces them.
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i, pct := tailRank(n)
	return Summary{N: n, P50: s[n/2], Tail: s[i], TailPct: pct}
}

// windows is how many consecutive windows a stream is cut into, and
// minWindow the fewest samples a window holds, so its tail has at least
// ten samples beyond it at p90. Each timing metric is the median of its
// per-window values, so a transient stall on the host moves one window,
// not the run.
const (
	windows   = 10
	minWindow = 100
)

// Windowed is a stream reduced window by window: the medians of the
// per-window medians and tails.
type Windowed struct {
	N       int // samples over all windows
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // the percentile each window's tail reports
}

// SummarizeWindows reduces each window and takes the medians.
func SummarizeWindows(ws [][]time.Duration) Windowed {
	var out Windowed
	var p50s, tails []float64
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		s := Summarize(w)
		out.N += s.N
		out.TailPct = s.TailPct
		p50s = append(p50s, float64(s.P50))
		tails = append(tails, float64(s.Tail))
	}
	out.P50 = time.Duration(medianF(p50s))
	out.Tail = time.Duration(medianF(tails))
	return out
}

// split cuts samples, in the order they were taken, into up to windows
// consecutive windows of near-equal size and at least minWindow samples
// each (one window when there are fewer).
func split(samples []time.Duration) [][]time.Duration {
	n := min(windows, max(len(samples)/minWindow, 1))
	out := make([][]time.Duration, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := w*len(samples)/n, (w+1)*len(samples)/n
		out = append(out, samples[lo:hi])
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF returns the median of a float slice (0 when empty).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
