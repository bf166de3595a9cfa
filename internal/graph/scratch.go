package graph

//oregami:hot

// This file is the scratch arena behind the allocation diet: the hot
// pipeline stages (MWM candidate scoring, per-phase MM-Route, METRICS
// link accounting) borrow per-worker buffers here instead of allocating
// per call or per round. Ownership rules (see DESIGN.md):
//
//   - GetScratch/Release bracket one logical operation (one MMRoute
//     phase, one contraction); Release returns every borrowed buffer to
//     the arena at once.
//   - A borrowed slice is dead after Release: never retain one in a
//     result. Results always own fresh allocations.
//   - A Scratch is single-goroutine. Concurrent phases each take their
//     own from the pool (sync.Pool keeps reuse per-P, so parallel
//     workers do not contend).

import "sync"

// Scratch is a reusable arena of typed buffers. The zero value is
// usable; GetScratch/Release recycle instances through a pool.
type Scratch struct {
	ints  reuse[int]
	f64s  reuse[float64]
	bools reuse[bool]
}

// reuse is a free list of one slice type: Get pops a buffer with enough
// capacity (or grows one), recording it as lent; reclaim moves every
// lent buffer back to the free list.
type reuse[T any] struct {
	free [][]T
	lent [][]T
}

func (r *reuse[T]) get(n int) []T {
	var buf []T
	if k := len(r.free); k > 0 {
		buf = r.free[k-1]
		r.free = r.free[:k-1]
	}
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	r.lent = append(r.lent, buf)
	return buf
}

func (r *reuse[T]) reclaim() {
	r.free = append(r.free, r.lent...)
	for i := range r.lent {
		r.lent[i] = nil
	}
	r.lent = r.lent[:0]
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch borrows an arena from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release reclaims every buffer handed out since GetScratch and returns
// the arena to the pool. Borrowed slices must not be used afterwards.
func (s *Scratch) Release() {
	s.ints.reclaim()
	s.f64s.reclaim()
	s.bools.reclaim()
	scratchPool.Put(s)
}

// Ints borrows a zeroed []int of length n.
func (s *Scratch) Ints(n int) []int {
	buf := s.ints.get(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// IntsFill borrows an []int of length n with every element set to v.
func (s *Scratch) IntsFill(n, v int) []int {
	buf := s.ints.get(n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// IntsCap borrows an empty []int with capacity at least n, for append
// accumulation without growth reallocations.
func (s *Scratch) IntsCap(n int) []int { return s.ints.get(n)[:0] }

// Float64s borrows a zeroed []float64 of length n.
func (s *Scratch) Float64s(n int) []float64 {
	buf := s.f64s.get(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Bools borrows a zeroed []bool of length n.
func (s *Scratch) Bools(n int) []bool {
	buf := s.bools.get(n)
	for i := range buf {
		buf[i] = false
	}
	return buf
}
