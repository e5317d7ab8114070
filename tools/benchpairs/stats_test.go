package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		wins, n int
		want    float64
	}{
		{10, 10, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 10, 22.0 / 1024},
		{5, 10, 1},
		{0, 0, 1},
	} {
		if got := signTestP(c.wins, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.wins, c.n, got, c.want)
		}
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "cpu_ns_per_op", Better: "lower", Bound: 0.25}
	parent := []float64{36, 35, 37, 36, 35, 36, 37, 35, 36, 36}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"gain", []float64{25, 26, 25, 24, 26, 25, 25, 26, 25, 25}, "gain"},
		{"nine of ten", []float64{25, 26, 25, 24, 26, 25, 25, 26, 25, 40}, "gain"},
		{"eight of ten", []float64{25, 26, 25, 24, 26, 25, 25, 40, 25, 40}, "inside bound"},
		{"null", parent, "inside bound"},
		{"worse", []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}, "WORSE"},
	} {
		if got := summarize(lower, parent, c.b, 0, 0).Verdict; !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A win inside the parent's own spread is no gain.
	noisy := []float64{30, 40, 30, 40, 30, 40, 30, 40, 30, 40}
	if s := summarize(lower, noisy, []float64{29, 39, 29, 39, 29, 39, 29, 39, 29, 39}, 0, 0); s.Gain {
		t.Errorf("a 1 ns win inside a 10 ns IQR counted as a gain: %+v", s)
	}
	// Higher-is-better metrics win the other way.
	higher := metricSpec{Name: "ops_per_sec", Better: "higher", Bound: 0.25}
	if s := summarize(higher, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 0, 0); !s.Gain || s.Wins != 10 {
		t.Errorf("doubled throughput: %+v, want a gain with 10 wins", s)
	}
	// A parent whose IQR reaches the bound cannot tell.
	wide := []float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20}
	if s := summarize(lower, wide, wide, 0, 0); !s.Unresolved || !strings.HasPrefix(s.Verdict, "unresolved") {
		t.Errorf("parent IQR of 10 on a median of 15 at bound 0.25: %+v, want unresolved", s)
	}
	// ... unless every change run beats every parent run: that is a gain.
	if s := summarize(lower, wide, []float64{4, 3, 4, 3, 4, 3, 4, 3, 4, 3}, 0, 0); !s.Gain || !s.Separated || !strings.HasPrefix(s.Verdict, "gain") {
		t.Errorf("every change run below every parent run: %+v, want a gain despite the spread", s)
	}
	// A wide parent does not hide a regression beyond the bound.
	if s := summarize(lower, wide, []float64{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, 0, 0); !strings.HasPrefix(s.Verdict, "WORSE") {
		t.Errorf("change median 40 against 15 with a wide parent: verdict %q, want WORSE", s.Verdict)
	}
	// A gain that fails a larger share of its operations is no gain.
	faster := []float64{25, 26, 25, 24, 26, 25, 25, 26, 25, 25}
	if s := summarize(lower, parent, faster, 0, 1e-6); s.Gain || !s.MoreFailed || !strings.HasPrefix(s.Verdict, "WORSE") {
		t.Errorf("faster but failing more: %+v, want no gain and a WORSE verdict", s)
	}
	if s := summarize(lower, parent, faster, 1e-6, 1e-6); !s.Gain {
		t.Errorf("faster with the same failed share: %+v, want a gain", s)
	}
}
