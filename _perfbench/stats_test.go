package main

import (
	"math"
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{100, 0.95, 95, 5},
		{200, 0.95, 190, 10},
		{100, 0, 1, 99},
		{100, 1, 100, 0},
		{1, 0.99, 1, 0},
		{11, 0.5, 6, 5},
		{10, 0.5, 5, 5},
		{3, 0.34, 2, 1},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond, want %g with %d", c.n, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of no samples = %g, %d; want NaN, 0", v, beyond)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, beyond, err := tailPercentile(seq(100), 0.95); err == nil {
		t.Errorf("p95 of 100 samples leaves %d beyond and was accepted", beyond)
	}
	v, beyond, err := tailPercentile(seq(200), 0.95)
	if err != nil || v != 190 || beyond != 10 {
		t.Errorf("p95 of 200 samples = %g, %d beyond, %v; want 190, 10, nil", v, beyond, err)
	}
	if _, _, err := tailPercentile(seq(1009), 0.99); err != nil {
		t.Errorf("p99 of 1009 samples: %v", err)
	}
}

func TestTailSamplesIsTheFewestThatFit(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		n := tailSamples(q)
		if _, _, err := tailPercentile(seq(n), q); err != nil {
			t.Errorf("tailSamples(%g) = %d, but that many fail: %v", q, n, err)
		}
		if _, _, err := tailPercentile(seq(n-1), q); err == nil {
			t.Errorf("tailSamples(%g) = %d, but %d already fit", q, n, n-1)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestColdScheduleCyclesEveryKey(t *testing.T) {
	const light, heavy, cycles = 8, 2, 4
	const size = light + heavy
	a := coldSchedule(rand.New(rand.NewSource(3)), light, heavy, cycles)
	b := coldSchedule(rand.New(rand.NewSource(3)), light, heavy, cycles)
	if len(a) != size*cycles {
		t.Fatalf("schedule length %d, want %d", len(a), size*cycles)
	}
	for c := 0; c < cycles; c++ {
		seen := make(map[int]bool)
		for slot, k := range a[c*size : (c+1)*size] {
			seen[k] = true
			if isHeavy := k >= light; isHeavy != (slot%(size/heavy) == 0) {
				t.Errorf("cycle %d slot %d holds key %d", c, slot, k)
			}
		}
		if len(seen) != size {
			t.Errorf("cycle %d visits %d of %d keys", c, len(seen), size)
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules at %d", i)
		}
	}
}
