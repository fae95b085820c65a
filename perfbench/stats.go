package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = sorted(xs)
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return xs[n-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// slotQuantile is the q-quantile of integer-valued samples (slot
// counts) read as grouped data: each value v stands for the interval
// [v-½, v+½) and the quantile interpolates inside the tied group. Plain
// order statistics of slot counts repeat exactly from run to run, which
// hides real shifts in the distribution; the grouped reading keeps them.
func slotQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = sorted(xs)
	target := q * float64(n)
	i := int(target)
	if i >= n {
		i = n - 1
	}
	v := xs[i]
	lo := sort.SearchFloat64s(xs, v)
	hi := sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1)))
	return v - 0.5 + (target-float64(lo))/float64(hi-lo)
}

// sorted returns xs in ascending order, copying it unless it already is.
func sorted(xs []float64) []float64 {
	if sort.Float64sAreSorted(xs) {
		return xs
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs
}

// interquartileMean is the mean of the samples between the first and
// third quartiles.
func interquartileMean(xs []float64) float64 {
	n := len(xs)
	if n < 4 {
		return mean(xs)
	}
	xs = sorted(xs)
	return mean(xs[n/4 : n-n/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hist is a log-linear histogram of non-negative nanosecond durations:
// 32 sub-buckets per power of two, so a quantile read from it is within
// about 3% of the exact one. It holds per-slot timings, which are too
// many to keep as samples.
type hist struct {
	n uint64
	b [60 * 32]uint64
}

func histBucket(u uint64) int {
	if u < 32 {
		return int(u)
	}
	e := bits.Len64(u) - 1 // 5..63, so the index stays below 60·32
	return (e-4)*32 + int((u>>(e-5))&31)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 32 {
		return float64(i), 1
	}
	e := i/32 + 4
	sub := i % 32
	w := math.Ldexp(1, e-5)
	return float64(32+sub) * w, w
}

func (h *hist) add(d time.Duration) {
	u := uint64(0)
	if d > 0 {
		u = uint64(d)
	}
	h.n++
	h.b[histBucket(u)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile interpolates linearly inside the bucket holding rank q·n.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.b) - 1)
	return lo + w
}
