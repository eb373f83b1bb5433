package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is a metric's spread across the epochs of one run.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return summarize(xs).Median }

// durQuantiles returns the quantiles qs of ns-valued samples, in µs.
func durQuantiles(samples []int64, qs ...float64) []float64 {
	xs := make([]float64, len(samples))
	for i, v := range samples {
		xs[i] = float64(v) / 1e3
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}

// hist is a lock-free log-linear histogram of non-negative int64 values
// (nanoseconds): 2^subBits sub-buckets per power of two, so a bucket spans
// at most 1/2^subBits of its value. Observe is one atomic add; concurrent
// wrappers on the sharded path share one hist without a mutex.
type hist struct {
	counts [64 << subBits]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
}

const subBits = 5

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits
	return (exp+1)<<subBits | int(uint64(v)>>uint(exp))&(1<<subBits-1)
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	exp := i>>subBits - 1
	mant := i&(1<<subBits-1) | 1<<subBits
	lo = float64(uint64(mant) << uint(exp))
	return lo, lo + float64(uint64(1)<<uint(exp))
}

func (h *hist) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) Count() uint64 { return h.n.Load() }

func (h *hist) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation (0 when empty).
func (h *hist) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile interpolates the q-quantile linearly inside its bucket (0 when
// empty).
func (h *hist) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(target-cum)/c
		}
		cum += c
	}
	lo, _ := bucketBounds(len(h.counts) - 1)
	return lo
}
