package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minSamples is the smallest sample count any timing metric is taken
// from, and the number of samples a tail percentile must leave beyond it.
const minSamples = 10

// percentile returns the nearest-rank q-quantile (0 <= q < 1) of the
// ascending samples and how many samples lie strictly above that rank.
// q = 0 is the minimum.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile is the workload's fixed tail percentile applied to the
// samples. It fails when fewer than minSamples samples lie beyond it, so
// a tail figure never rests on a handful of requests.
func tailPercentile(sorted []float64, q float64) (float64, int, error) {
	v, beyond := percentile(sorted, q)
	if beyond < minSamples {
		return 0, beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, len(sorted), beyond, minSamples)
	}
	return v, beyond, nil
}

// tailSamples is the fewest samples for which tailPercentile(q) succeeds.
func tailSamples(q float64) int {
	n := minSamples
	for {
		if _, beyond := percentile(make([]float64, n), q); beyond >= minSamples {
			return n
		}
		n++
	}
}

// median of unsorted values (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssSampler reads the process's resident set while a load phase runs,
// so its peak can be taken per window of the phase. The peak over the
// whole process life swings by a fifth between runs of the same code,
// with where a garbage collection happens to fall. The readings come
// from a goroutine rather than from the load loop between requests,
// which would miss the peaks inside ml-stencil's long requests; read so
// seldom, it takes a few microseconds a second from hit-mix's one P.
type rssSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration
	mb    []float64
}

const (
	rssEvery  = 250 * time.Millisecond
	rssWindow = 3 * time.Second // longer than two ml-stencil requests
)

func startRSS() *rssSampler {
	s := &rssSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb, ok := rssMB(); ok {
					s.at = append(s.at, time.Since(s.start))
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// peaks stops the sampler and returns the highest reading of each whole
// rssWindow of the phase.
func (s *rssSampler) peaks() []float64 {
	close(s.stop)
	<-s.done
	var out []float64
	for i := range s.at {
		w := int(s.at[i] / rssWindow)
		if w >= len(out) {
			if time.Duration(w+1)*rssWindow > s.at[len(s.at)-1] {
				break // the last window is incomplete
			}
			out = append(out, make([]float64, w+1-len(out))...)
		}
		out[w] = math.Max(out[w], s.mb[i])
	}
	return out
}

// rssMB is the current resident set from /proc/self/statm.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// meta describes the recording hardware, printed with every report.
func meta() string {
	return fmt.Sprintf("meta: GOMAXPROCS=%d nproc=%d cpu=%q go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
