package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// median returns the middle of vs (mean of the middle two for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean is the mean of the middle half of vs (the interquartile
// mean): the lowest and the highest quarter are dropped, so a few bad
// rounds on either side do not move it, and unlike the median it moves
// gradually, not all at once, when the values fall into two groups —
// which rt's spin-then-park handoffs make them do. Fewer than four
// values give the median. vs is not modified.
func midmean(vs []float64) float64 {
	if len(vs) < 4 {
		return median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// spread is (max-min)/midmean across rounds: how far the rounds of one
// run disagree. 0 when the midmean is 0.
func spread(vs []float64) float64 {
	m := midmean(vs)
	if len(vs) == 0 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / math.Abs(m)
}

// Lane indexes, in priority order — the order rt's per-lane stats use.
const (
	laneCritical = iota
	laneNormal
	laneBestEffort
	numLanes
)

var laneNames = [numLanes]string{"critical", "normal", "besteffort"}

// laneShare is the offered mix of the open-loop workload.
var laneShare = [numLanes]float64{0.10, 0.30, 0.60}

// schedule is the open loop's arrival process: exponential gaps at a
// fixed rate on an absolute timeline, each arrival drawn into a lane.
// It is a pure function of (seed, rate), so equal seeds replay the same
// offered load.
type schedule struct {
	rng    *rand.Rand
	gapNs  float64 // mean inter-arrival gap
	dueNs  float64 // offset of the last arrival from the start
	crit   float64
	normal float64
}

func newSchedule(seed uint64, ratePerSec float64) *schedule {
	return &schedule{
		rng:    rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		gapNs:  1e9 / ratePerSec,
		crit:   laneShare[laneCritical],
		normal: laneShare[laneCritical] + laneShare[laneNormal],
	}
}

// next returns the next arrival: its due time as an offset in ns from
// the start of the schedule, and its lane.
func (s *schedule) next() (due int64, lane int) {
	s.dueNs += s.rng.ExpFloat64() * s.gapNs
	switch u := s.rng.Float64(); {
	case u < s.crit:
		lane = laneCritical
	case u < s.normal:
		lane = laneNormal
	default:
		lane = laneBestEffort
	}
	return int64(s.dueNs), lane
}

// fillPayload writes the seeded pattern the handlers verify: the first
// byte, the last byte, and the length in bytes 1..4. It returns the
// word the request carries so the handler can check all three without
// sharing state with the caller.
func fillPayload(buf []byte, x uint64) uint64 {
	first, last := byte(x), byte(x>>8)
	n := len(buf)
	buf[0] = first
	buf[1], buf[2], buf[3], buf[4] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	buf[n-1] = last
	return uint64(first) | uint64(last)<<8 | uint64(n)<<16
}

// checkPayload reports whether a handler-side view matches the word
// fillPayload returned.
func checkPayload(p []byte, want uint64) bool {
	n := int(want >> 16)
	if len(p) != n || n < 6 {
		return false
	}
	return p[0] == byte(want) && p[n-1] == byte(want>>8) &&
		int(p[1])|int(p[2])<<8|int(p[3])<<16|int(p[4])<<24 == n
}

// mix is a cheap keyed hash (splitmix64 finalizer): request words are
// checked handler-side against it, and it drives the payload fill.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
