package pinwheel

import "sort"

// Index is the occurrence index of a cyclic slot array. Every schedule
// query — window verification, gaps, retrieval latency, fault delay,
// block rotation — is answered from it, in place of per-task × per-slot
// prefix tables. It holds two arrays, built in O(P) time and memory
// for a period of P slots:
//
//   - each task's in-period slot offsets in increasing order, all tasks
//     back to back in one flat array (CSR layout: one entry per busy
//     slot plus a per-task start offset);
//   - each slot's rank among its task's occurrences within the period.
//
// Occurrences extend cyclically: with c = Count(i), occurrence k ≥ 0 of
// task i, counted from slot 0, lies at Offsets(i)[k mod c] + ⌊k/c⌋·P.
//
// The central query is Span(i, k) = maxⱼ (occ[j+k] − occ[j]), the
// largest distance from an occurrence of task i to its k-th successor.
// Every cyclic window of w slots holds at least k occurrences exactly
// when Span(i, k) ≤ w — the pinwheel condition (k, w). Span(i, 1) is
// the maximum gap δ of Lemma 2, Span(i, M) the worst fault-free
// retrieval time of a file needing M blocks, and Span(i, r) the delay r
// adversarial faults can cause an AIDA retrieval.
type Index struct {
	period int
	start  []int32 // task i's offsets are occ[start[i]:start[i+1]]
	occ    []int32
	rank   []int32 // rank[t]: occurrences of slot t's task before offset t; 0 when idle
}

// NewIndex indexes one period of slots for tasks 0..tasks−1. Entries
// outside that range, Idle included, are left out of the index; callers
// that must reject unknown tasks check the slots first.
func NewIndex(slots []int, tasks int) *Index {
	x := &Index{
		period: len(slots),
		start:  make([]int32, tasks+1),
		rank:   make([]int32, len(slots)),
	}
	// Count each task's occurrences into start[i+1]; the running count
	// is each slot's rank.
	for t, v := range slots {
		if v >= 0 && v < tasks {
			x.rank[t] = x.start[v+1]
			x.start[v+1]++
		}
	}
	for i := 0; i < tasks; i++ {
		x.start[i+1] += x.start[i]
	}
	x.occ = make([]int32, x.start[tasks])
	for t, v := range slots {
		if v >= 0 && v < tasks {
			x.occ[x.start[v]+x.rank[t]] = int32(t)
		}
	}
	return x
}

// Count returns how many slots per period carry task i.
//
//pinlint:hotpath
func (x *Index) Count(i int) int { return int(x.start[i+1] - x.start[i]) }

// Offsets returns task i's slot offsets within one period, in
// increasing order. The slice is shared with the index and must not be
// modified.
func (x *Index) Offsets(i int) []int32 { return x.occ[x.start[i]:x.start[i+1]] }

// Ordinal returns the number of occurrences of task i before slot
// t ≥ 0, given that slot t carries task i: the ordinal of the
// occurrence at t.
//
//pinlint:hotpath
func (x *Index) Ordinal(i, t int) int {
	return t/x.period*x.Count(i) + int(x.rank[t%x.period])
}

// At returns the slot of occurrence k ≥ 0 of task i. The task must be
// scheduled.
func (x *Index) At(i, k int) int {
	occ := x.Offsets(i)
	return int(occ[k%len(occ)]) + k/len(occ)*x.period
}

// Next returns the number of occurrences of task i before slot t ≥ 0 —
// the ordinal of its first occurrence at or after t — by binary search
// over the task's offsets.
func (x *Index) Next(i, t int) int {
	occ := x.Offsets(i)
	off := t % x.period
	j := sort.Search(len(occ), func(j int) bool { return int(occ[j]) >= off })
	return t/x.period*len(occ) + j
}

// Wait returns the number of slots from slot t ≥ 0 up to and including
// the k-th occurrence (k ≥ 1) of task i at or after t. The task must be
// scheduled.
func (x *Index) Wait(i, t, k int) int { return x.At(i, x.Next(i, t)+k-1) - t + 1 }

// Span returns maxⱼ (occ[j+k] − occ[j]) over the occurrences of task
// i: the largest distance from an occurrence to its k-th successor. It
// is 0 for k ≤ 0 and for a task that is never scheduled.
func (x *Index) Span(i, k int) int {
	d, _ := x.span(i, k)
	return d
}

// span is Span together with the in-period index j of an occurrence
// whose k-th successor is farthest away.
func (x *Index) span(i, k int) (d, at int) {
	occ := x.Offsets(i)
	c := len(occ)
	if c == 0 || k <= 0 {
		return 0, 0
	}
	turns, r := k/c, k%c
	base := turns * x.period
	for j, o := range occ {
		next, dist := j+r, base
		if next >= c {
			next -= c
			dist += x.period
		}
		if dist += int(occ[next]) - int(o); dist > d {
			d, at = dist, j
		}
	}
	return d, at
}

// Window checks the pinwheel condition (k, w) for task i: every cyclic
// window of w consecutive slots must hold at least k occurrences. That
// holds exactly when Span(i, k) ≤ w (and the task is scheduled, when
// k > 0). On failure it returns a violating window's first slot within
// the period and the number of occurrences that window holds.
func (x *Index) Window(i, k, w int) (start, got int, ok bool) {
	if k <= 0 {
		return 0, 0, true
	}
	if x.Count(i) == 0 {
		return 0, 0, false
	}
	d, j := x.span(i, k)
	if d <= w {
		return 0, 0, true
	}
	// The window opening right after occurrence j ends before its k-th
	// successor.
	start = (int(x.Offsets(i)[j]) + 1) % x.period
	return start, x.Next(i, start+w) - x.Next(i, start), false
}

// MeanWait returns the mean of Wait(i, t, k) over the start slots t of
// one period (Wait is periodic in t). It is computed per gap in
// O(Count(i)): the g starts in the gap before occurrence j all wait for
// occurrence j+k−1, at distances d+1, …, d+g with d the distance from
// occurrence j to occurrence j+k−1. The task must be scheduled.
func (x *Index) MeanWait(i, k int) float64 {
	occ := x.Offsets(i)
	prev := int(occ[len(occ)-1]) - x.period
	total := 0
	for j, o := range occ {
		g := int(o) - prev
		d := x.At(i, j+k-1) - int(o)
		total += g*(d+1) + g*(g-1)/2
		prev = int(o)
	}
	return float64(total) / float64(x.period)
}
