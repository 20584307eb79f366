package main

import (
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime checks that one stalled request delays
// the measured latency of the ones behind it: an open-loop stream
// times each operation from when it was due, so the wait the stall
// imposed is counted, where a closed loop would hide it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		stall  = 100 * time.Millisecond
	)
	op := func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	}
	open := runOpenLoop(time.Now(), period, 5*period, op)
	if open.Attempts != 5 || len(open.Lat) != 5 {
		t.Fatalf("attempts %d, samples %d, want 5", open.Attempts, len(open.Lat))
	}
	for i := 1; i < 5; i++ {
		// Operation i was due at i·period but could only start after the
		// stall ended, at about stall.
		if min := stall - time.Duration(i)*period; open.Lat[i] < min {
			t.Errorf("op %d latency %v, want >= %v (stall counted from due time)", i, open.Lat[i], min)
		}
		if min := stall - time.Duration(i)*period; open.Late[i] < min {
			t.Errorf("op %d lateness %v, want >= %v", i, open.Late[i], min)
		}
	}
	if open.onSchedule() >= 1 {
		t.Errorf("a stalled stream reported on schedule (%v)", open.onSchedule())
	}

	closed := runClosedLoop(5, op)
	for i := 1; i < 5; i++ {
		if closed.Lat[i] >= stall/2 {
			t.Errorf("closed loop op %d latency %v: it should time from its own send", i, closed.Lat[i])
		}
	}
}

// TestOpenLoopFailuresMissEveryLimit checks a failed operation counts
// as failed and lands above every real latency.
func TestOpenLoopFailuresMissEveryLimit(t *testing.T) {
	res := runOpenLoop(time.Now(), time.Millisecond, 20*time.Millisecond, func(i int) bool { return i != 3 })
	if res.Failed != 1 || res.Attempts != 20 {
		t.Fatalf("failed %d of %d, want 1 of 20", res.Failed, res.Attempts)
	}
	if res.Lat[3] != failedLatency {
		t.Errorf("failed op latency %v", res.Lat[3])
	}
	if s := Summarize(res.Lat); s.Tail == failedLatency && s.P50 == failedLatency {
		t.Errorf("one failure dominated the median")
	}
}
