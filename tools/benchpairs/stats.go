package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / math.Max(1, float64(len(xs)))
}

// signTestP is the two-sided sign-test p-value for wins out of n
// untied pairs: the probability, under "either side wins a pair with
// probability 1/2", of a split at least as uneven.
func signTestP(wins, n int) float64 {
	if n == 0 {
		return 1
	}
	k := wins
	if n-wins < k {
		k = n - wins
	}
	var tail float64
	for i := 0; i <= k; i++ {
		tail += binom(n, i)
	}
	p := 2 * tail / math.Pow(2, float64(n))
	return math.Min(p, 1)
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// summary is one metric's account over the pairs: side A is the
// parent (or the A/A baseline), side B the change.
type summary struct {
	Metric            string
	MedA, Q1A, Q3A    float64
	MedB, Q1B, Q3B    float64
	Ratio             float64 // MedB / MedA
	Wins, Ties, Pairs int     // pairs in which B is better, equal, and all pairs
	P                 float64 // two-sided sign test over untied pairs
	Gain              bool    // the claim rule: ≥ 9 of 10 pairs won, median gap beyond A's IQR, no larger failed share
	Separated         bool    // every B run better than every A run
	Worse, Unresolved bool    // B worse than A beyond the bound; A's own spread reaches the bound
	MoreFailed        bool    // B's share of failed operations is above A's
	Verdict           string
}

// summarize applies the acceptance rules to paired samples a[i], b[i],
// whose sides failed the shares failA and failB of their operations. A
// gain needs B to win at least nine pairs in ten, a median gap larger
// than A's interquartile range, and no larger failed share. A
// regression is B's median worse than A's by more than the bound, or a
// larger failed share. A metric whose parent IQR, relative to its
// median, reaches the bound cannot tell either — unless every B run is
// better than every A run, which no spread explains: unresolved.
func summarize(m metricSpec, a, b []float64, failA, failB float64) summary {
	s := summary{Metric: m.Name, Pairs: len(a)}
	s.MedA, s.Q1A, s.Q3A = median(a), quantile(a, 0.25), quantile(a, 0.75)
	s.MedB, s.Q1B, s.Q3B = median(b), quantile(b, 0.25), quantile(b, 0.75)
	s.Ratio = s.MedB / s.MedA
	higher := m.Better == "higher"
	for i := range a {
		switch {
		case a[i] == b[i]:
			s.Ties++
		case (b[i] > a[i]) == higher:
			s.Wins++
		}
	}
	s.P = signTestP(s.Wins, s.Pairs-s.Ties)
	gap := s.MedB - s.MedA
	if !higher {
		gap = -gap
	}
	iqr := s.Q3A - s.Q1A
	s.MoreFailed = failB > failA
	s.Gain = s.Pairs > 0 && float64(s.Wins) >= 0.9*float64(s.Pairs) && gap > iqr && !s.MoreFailed
	if higher {
		s.Separated = s.Pairs > 0 && quantile(b, 0) > quantile(a, 1)
	} else {
		s.Separated = s.Pairs > 0 && quantile(b, 1) < quantile(a, 0)
	}
	if m.Bound > 0 && s.MedA != 0 {
		s.Worse = -gap/math.Abs(s.MedA) > m.Bound
		s.Unresolved = iqr/math.Abs(s.MedA) >= m.Bound
	}
	switch {
	case s.MoreFailed:
		s.Verdict = "WORSE: a larger share of operations failed"
	case s.Worse:
		s.Verdict = "WORSE beyond the bound"
	case s.Gain && s.Separated:
		s.Verdict = "gain, better in every run"
	case s.Gain && !s.Unresolved:
		s.Verdict = "gain"
	case s.Unresolved:
		s.Verdict = "unresolved: the spread reaches the bound"
	default:
		s.Verdict = "inside bound"
	}
	return s
}
