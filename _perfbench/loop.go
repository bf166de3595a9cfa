package main

import (
	"sync"
	"time"
)

// runClosed is a closed loop on one connection: the next request goes
// out only when the previous one has completed. It calls do, which
// returns the latency of the request it sent, until d has elapsed and at
// least min requests have completed. done[i] is when request i
// completed, counted from the start.
func runClosed(d time.Duration, min int, do func(seq int) time.Duration) (lat, done []time.Duration) {
	start := time.Now()
	for seq := 0; time.Since(start) < d || len(lat) < min; seq++ {
		lat = append(lat, do(seq))
		done = append(done, time.Since(start))
	}
	return lat, done
}

// openResult is what an open loop measured. Latency runs from each
// request's due time, not from when it was sent, so a stall also counts
// against the requests that queued behind it. Late is how far behind
// schedule the generator handed each request to a connection.
type openResult struct {
	due     []time.Duration // offset of each request's due time from the start
	latency []time.Duration
	late    []time.Duration
	start   time.Time
}

// runOpen is an open loop: request i is due at start + i*interval
// whatever happened to earlier requests, and is sent on the first of
// conns connections to become free. It returns once every request has
// completed.
func runOpen(interval time.Duration, n, conns int, do func(i int)) openResult {
	res := openResult{
		due:     make([]time.Duration, n),
		latency: make([]time.Duration, n),
		late:    make([]time.Duration, n),
		start:   time.Now(),
	}
	// Sized to every send, so the generator never blocks on a busy
	// connection and its lateness measures only its own scheduling.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
				res.latency[i] = time.Since(res.start) - res.due[i]
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		res.due[i] = due
		if wait := due - time.Since(res.start); wait > 0 {
			time.Sleep(wait)
		}
		res.late[i] = time.Since(res.start) - due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}
