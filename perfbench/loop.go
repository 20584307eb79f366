package main

import (
	"math"
	"time"
)

// failedLatency stands in for the latency of an operation that failed,
// was refused or answered wrongly: it counts as missing every latency
// limit, so it lands at the top of the distribution.
const failedLatency = time.Duration(math.MaxInt64)

// StreamResult is what one request stream measured.
type StreamResult struct {
	Lat      []time.Duration // per operation; failedLatency for failures
	Late     []time.Duration // open loop: how far each send ran behind its due time
	Attempts int
	Failed   int
	Elapsed  time.Duration
	// Open loop: the span the schedule asked the sends to cover, and
	// the span they did cover; their ratio is achieved over offered.
	Scheduled, Sent time.Duration
}

// onSchedule is an open-loop stream's achieved rate over its offered
// rate: 1 when every send went out on time.
func (r StreamResult) onSchedule() float64 {
	if r.Sent <= 0 {
		return 1
	}
	return ratio(float64(r.Scheduled), float64(r.Sent))
}

// runOpenLoop drives op on a fixed schedule: operation i is due at
// start + i·period, for every i whose due time falls before start+dur.
// A single stream sends operation i+1 only after operation i returned,
// so a stall delays everything behind it; latency is therefore timed
// from the due time, not from the send, and the wait a stall imposes
// on later operations is counted. op returns false when the operation
// failed or its answer was wrong.
func runOpenLoop(start time.Time, period, dur time.Duration, op func(i int) bool) StreamResult {
	n := int(dur / period)
	res := StreamResult{Lat: make([]time.Duration, 0, n), Late: make([]time.Duration, 0, n)}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.Late = append(res.Late, max(time.Since(due), 0))
		res.Sent = time.Since(start)
		ok := op(i)
		res.Attempts++
		if !ok {
			res.Failed++
			res.Lat = append(res.Lat, failedLatency)
			continue
		}
		res.Lat = append(res.Lat, time.Since(due))
	}
	res.Elapsed = time.Since(start)
	res.Scheduled = time.Duration(max(n-1, 0)) * period
	return res
}

// runClosedLoop calls op for i = 0..n-1 back to back, timing each call
// from its send: a closed-loop producer waits for every reply before
// sending again, so nothing is ever due before the previous reply.
func runClosedLoop(n int, op func(i int) bool) StreamResult {
	res := StreamResult{Lat: make([]time.Duration, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ok := op(i)
		res.Attempts++
		if !ok {
			res.Failed++
			res.Lat = append(res.Lat, failedLatency)
			continue
		}
		res.Lat = append(res.Lat, time.Since(t0))
	}
	res.Elapsed = time.Since(start)
	return res
}

// merge concatenates the results of parallel streams; Elapsed is the
// longest stream's. Schedules are per stream and are not merged.
func merge(rs ...StreamResult) StreamResult {
	var out StreamResult
	for _, r := range rs {
		out.Lat = append(out.Lat, r.Lat...)
		out.Late = append(out.Late, r.Late...)
		out.Attempts += r.Attempts
		out.Failed += r.Failed
		out.Elapsed = max(out.Elapsed, r.Elapsed)
	}
	return out
}
