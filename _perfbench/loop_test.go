package main

import (
	"testing"
	"time"
)

// With one connection, a request that is due while the previous one is
// still running waits for it, and that wait is part of its latency: the
// k-th request cannot finish before (k+1) service times have passed, so
// its latency from its due time is at least (k+1)*service - k*interval.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		n        = 5
		interval = 5 * time.Millisecond
		service  = 20 * time.Millisecond
	)
	res := runOpen(interval, n, 1, func(int) { time.Sleep(service) })
	for k := 0; k < n; k++ {
		floor := time.Duration(k+1)*service - time.Duration(k)*interval
		if res.latency[k] < floor {
			t.Errorf("request %d latency %v < %v: the wait behind earlier requests was not counted", k, res.latency[k], floor)
		}
		if res.due[k] != time.Duration(k)*interval {
			t.Errorf("request %d due at %v, want %v", k, res.due[k], time.Duration(k)*interval)
		}
		if res.late[k] < 0 {
			t.Errorf("request %d generator lateness %v < 0", k, res.late[k])
		}
	}
	// Measured from the send instead, the last request would read about
	// one service time; from its due time it carries the whole backlog.
	if last := res.latency[n-1]; last < 3*service {
		t.Errorf("last request latency %v does not include the backlog", last)
	}
}

// When the connections keep up, latency is about the service time and
// the generator sends on schedule rather than in a burst.
func TestOpenLoopWithoutBacklog(t *testing.T) {
	const (
		n        = 4
		interval = 30 * time.Millisecond
		service  = 5 * time.Millisecond
	)
	sent := make([]time.Duration, n)
	start := time.Now()
	res := runOpen(interval, n, 2, func(i int) {
		sent[i] = time.Since(start)
		time.Sleep(service)
	})
	for k := 0; k < n; k++ {
		if res.latency[k] < service {
			t.Errorf("request %d latency %v < service time %v", k, res.latency[k], service)
		}
		if sent[k] < res.due[k] {
			t.Errorf("request %d sent at %v, before it was due at %v", k, sent[k], res.due[k])
		}
	}
}

func TestClosedLoopTakesMinimumSamples(t *testing.T) {
	calls := 0
	lat, _ := runClosed(0, 3, func(int) time.Duration { calls++; return time.Millisecond })
	if calls != 3 || len(lat) != 3 {
		t.Errorf("runClosed(0, 3) made %d calls and %d samples, want 3", calls, len(lat))
	}
}
