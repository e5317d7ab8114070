package main

import (
	"math/bits"
	"sync/atomic"
)

// Log-linear latency histogram: exact buckets below 32 ns, then 32
// minor buckets per octave, so a bucket is at most 1/32 of its lower
// bound wide. Recording is one atomic add into a preallocated array;
// nothing grows inside a measured window.
const (
	histMinorBits = 5
	histMinor     = 1 << histMinorBits
	histBuckets   = (64 - histMinorBits) * histMinor
)

type hist struct {
	counts [histBuckets]atomic.Int64
}

func histIndex(v int64) int {
	if v < histMinor {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-histMinorBits+1)*histMinor + int(v>>(e-histMinorBits))&(histMinor-1)
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width int64) {
	if i < histMinor {
		return int64(i), 1
	}
	shift := i/histMinor - 1
	return int64(histMinor+i%histMinor) << shift, 1 << shift
}

func (h *hist) add(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) total() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 < q <= 1), interpolating by rank
// inside the bucket that holds it so the value is continuous rather
// than stepping from bucket to bucket. An empty histogram gives 0.
func (h *hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, w := histBounds(i)
			return float64(lo) + float64(w)*(rank-cum)/c
		}
		cum += c
	}
	lo, w := histBounds(histBuckets - 1)
	return float64(lo + w)
}

// midmean is the mean of the samples between the first and the third
// quartile, each bucket counted at its midpoint and the two edge
// buckets by the share of them that lies inside. It is the latency
// figure the benchmark gates on: where a distribution has one mode it
// agrees with the median, and where it has two (a handoff that either
// spins or parks) it moves with the mix instead of jumping between
// them. An empty histogram gives 0.
func (h *hist) midmean() float64 {
	n := float64(h.total())
	if n == 0 {
		return 0
	}
	lo, hi := n/4, 3*n/4
	var cum, sum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if in := min(cum+c, hi) - max(cum, lo); in > 0 {
			b, w := histBounds(i)
			// The part of the bucket inside [lo, hi], by rank.
			from, to := (max(cum, lo)-cum)/c, (min(cum+c, hi)-cum)/c
			sum += in * (float64(b) + float64(w)*(from+to)/2)
		}
		cum += c
		if cum >= hi {
			break
		}
	}
	return sum / (hi - lo)
}

func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}
