package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestHistBucketErrorAndQuantiles(t *testing.T) {
	// Every value lands in a bucket that contains it and is at most
	// 1/32 of its lower bound wide.
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 1000, 4097, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		lo, w := histBounds(histIndex(v))
		if v < lo || v-lo >= w {
			t.Errorf("value %d not in its bucket [%d, %d+%d)", v, lo, lo, w)
		}
		if lo >= histMinor && float64(w)/float64(lo) > 1.0/32 {
			t.Errorf("bucket of %d is %d wide at %d: more than 1/32", v, w, lo)
		}
	}

	rng := rand.New(rand.NewPCG(7, 7))
	var h hist
	ref := make([]float64, 0, 200000)
	for i := 0; i < cap(ref); i++ {
		v := int64(math.Exp(rng.Float64()*14)) + 20 // 20 ns .. ~1.2 ms, log-uniform
		h.add(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	if h.total() != int64(len(ref)) {
		t.Fatalf("total %d, want %d", h.total(), len(ref))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		want := ref[int(q*float64(len(ref)))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.03 {
			t.Errorf("quantile %.3f = %.1f, reference %.1f: off by more than 3%%", q, got, want)
		}
	}

	var other, empty hist
	other.add(100)
	other.merge(&h)
	if other.total() != h.total()+1 {
		t.Errorf("merge: total %d, want %d", other.total(), h.total()+1)
	}
	if empty.quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", empty.quantile(0.5))
	}
}

func TestMedianAndSpread(t *testing.T) {
	cases := []struct {
		in             []float64
		median, spread float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 0},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{10, 30, 20, 40}, 25, 1.2},
		{[]float64{0, 0, 0}, 0, 0},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.median)
		}
		if got := spread(c.in); math.Abs(got-c.spread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.in, got, c.spread)
		}
	}
	in := []float64{3, 1, 2, 9, 0}
	median(in)
	midmean(in)
	if in[0] != 3 || in[4] != 0 {
		t.Error("median or midmean reordered its input")
	}

	// The midmean drops a quarter at each end: two wild rounds in ten
	// do not move it, and a 4/6 split between two groups lands between
	// them rather than on either.
	if got := midmean([]float64{5, 5, 5, 5, 5, 5, 5, 5, 1000, 0}); got != 5 {
		t.Errorf("midmean with two outliers = %v, want 5", got)
	}
	if got := midmean([]float64{1, 1, 1, 1, 2, 2, 2, 2, 2, 2}); math.Abs(got-(2+4*2)/6.0) > 1e-12 {
		t.Errorf("midmean of a 4/6 split = %v, want %v", got, (2+4*2)/6.0)
	}
	if got := midmean([]float64{7, 1, 4}); got != 4 {
		t.Errorf("midmean of three values = %v, want their median 4", got)
	}
}

func TestHistMidmean(t *testing.T) {
	// Uniform on [1000, 2000): the interquartile mean is the middle.
	var u hist
	for v := int64(1000); v < 2000; v++ {
		u.add(v)
	}
	if got := u.midmean(); math.Abs(got-1500)/1500 > 0.02 {
		t.Errorf("uniform midmean = %.1f, want 1500 within 2%%", got)
	}
	// Two modes, 40% at 500 and 60% at 1300: the middle half holds 15
	// of the low mode and 35 of the high one per hundred samples.
	var b hist
	for i := 0; i < 4000; i++ {
		b.add(500)
	}
	for i := 0; i < 6000; i++ {
		b.add(1300)
	}
	want := (15*500 + 35*1300) / 50.0
	if got := b.midmean(); math.Abs(got-want)/want > 0.03 {
		t.Errorf("bimodal midmean = %.1f, want %.1f within 3%%", got, want)
	}
	var empty hist
	if empty.midmean() != 0 {
		t.Error("empty histogram midmean is not 0")
	}
}

func TestScheduleFollowsSeed(t *testing.T) {
	draw := func(seed uint64) (dues []int64, lanes [numLanes]int) {
		s := newSchedule(seed, openRate)
		for i := 0; i < 20000; i++ {
			due, lane := s.next()
			dues = append(dues, due)
			lanes[lane]++
		}
		return
	}
	a, la := draw(1)
	b, _ := draw(1)
	c, _ := draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverge at arrival %d", i)
		}
		same = same && a[i] == c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at arrival %d", i)
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// The rate and the lane mix are the configured ones.
	if rate := float64(len(a)) / (float64(a[len(a)-1]) / 1e9); math.Abs(rate-openRate)/openRate > 0.05 {
		t.Errorf("schedule rate %.0f/s, want %.0f/s", rate, openRate)
	}
	for l, n := range la {
		if got := float64(n) / float64(len(a)); math.Abs(got-laneShare[l]) > 0.02 {
			t.Errorf("lane %s share %.3f, want %.2f", laneNames[l], got, laneShare[l])
		}
	}
}

func TestPayloadPattern(t *testing.T) {
	buf := make([]byte, zcBytes)
	want := fillPayload(buf, mix(42))
	if !checkPayload(buf, want) {
		t.Fatal("pattern does not verify against its own check word")
	}
	buf[len(buf)-1]++
	if checkPayload(buf, want) {
		t.Error("a corrupted last byte verified")
	}
	if checkPayload(buf[:100], want) {
		t.Error("a short view verified")
	}
	if checkPayload(nil, want) {
		t.Error("a nil view verified")
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{start: 100, end: 200, op: 0, parent: -1, name: spOp},      // 0: two nested children, overlapping each other
		{start: 110, end: 150, op: 0, parent: 0, name: spCall},     // 1
		{start: 140, end: 170, op: 0, parent: 0, name: spAlloc},    // 2
		{start: 120, end: 130, op: 0, parent: 1, name: spHandler},  // 3: grandchild, charged to 1 only
		{start: 190, end: 260, op: 0, parent: 0, name: spView},     // 4: sticks out of its parent, clipped
		{start: 300, end: 0, op: 0, parent: 0, name: spAsyncCall},  // 5: never finished
		{start: 400, end: 450, op: 6, parent: -1, name: spCall},    // 6: child ran wholly after it
		{start: 500, end: 520, op: 6, parent: 6, name: spHandler},  // 7
		{start: 600, end: 610, op: 8, parent: 99, name: spHandler}, // 8: parent was dropped
	}
	self, kids := selfTimes(spans)
	wantSelf := []int64{100 - 60 - 10, 40 - 10, 30, 10, 70, -1, 50, 20, 10}
	wantKids := []int32{3, 1, 0, 0, 0, 0, 0, 0, 0}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d self = %d, want %d", i, self[i], wantSelf[i])
		}
		if kids[i] != wantKids[i] {
			t.Errorf("span %d nested children = %d, want %d", i, kids[i], wantKids[i])
		}
	}

	// Reduced with a calibration of zero, the medians are the raw ones,
	// and the queue wait is handler start minus AsyncCall end.
	q := []span{
		{start: 10, end: 50, op: 0, parent: -1, name: spAsyncCall, lane: laneNormal},
		{start: 80, end: 90, op: 0, parent: 0, name: spHandler, lane: laneNormal},
	}
	st := reduceSpans(q, calib{})
	if got := st.wait[laneNormal].quantile(1); got < 30 || got > 31 {
		t.Errorf("queue wait = %v, want 30", got)
	}
	if got := st.dur[spAsyncCall].total(); got != 1 {
		t.Errorf("AsyncCall durations recorded = %d, want 1", got)
	}
}

func TestTraceLinkRoundTrip(t *testing.T) {
	for _, c := range [][2]int32{{0, 0}, {5, 9}, {1 << 20, 3}} {
		op, parent := unlink(link(c[0], c[1]))
		if op != c[0] || parent != c[1] {
			t.Errorf("link(%d,%d) came back as (%d,%d)", c[0], c[1], op, parent)
		}
	}
	if link(3, -1) != 0 {
		t.Error("a dropped span must link as 0 (not traced)")
	}
	// Two slots per lane: the third span of a lane is dropped, and
	// spans of other lanes keep their links once the lanes are joined.
	tr := newTracer(2 * traceLanes)
	a, b, c := tr.begin(0, spCall, -1, -1, 0), tr.begin(0, spHandler, 0, 0, 0), tr.begin(0, spHandler, 0, 0, 0)
	d := tr.begin(3, spHandler, b, a, 0)
	for _, id := range []int32{a, b, c, d} {
		tr.end(id)
	}
	if a != 0 || b != 1 || c != -1 || d != 6 || tr.dropped.Load() != 1 {
		t.Fatalf("ids %d %d %d %d, dropped %d", a, b, c, d, tr.dropped.Load())
	}
	if tr.laneOf(d) != 3 || tr.laneOf(b) != 0 {
		t.Errorf("laneOf: %d and %d, want 3 and 0", tr.laneOf(d), tr.laneOf(b))
	}
	rec := tr.recorded()
	if len(rec) != 3 || rec[2].parent != 1 || rec[2].op != 0 || rec[0].op != 0 || rec[0].parent != -1 {
		t.Errorf("joined lanes: %+v", rec)
	}
}

func TestStatSumByName(t *testing.T) {
	type shard struct {
		LeasesActive int64
		Depth        int
		ShedByLane   [3]int64
		Name         string
	}
	stats := []shard{{LeasesActive: 2, Depth: 5, ShedByLane: [3]int64{1, 2, 3}}, {LeasesActive: 3, Depth: 1, ShedByLane: [3]int64{10, 20, 30}}}
	for _, c := range []struct {
		field string
		idx   int
		want  int64
		ok    bool
	}{
		{"LeasesActive", -1, 5, true},
		{"Depth", -1, 6, true},
		{"ShedByLane", 2, 33, true},
		{"ShedByLane", 3, 0, false},
		{"Gone", -1, 0, false},
		{"Name", -1, 0, false},
		{"Depth", 0, 0, false},
	} {
		got, ok := statSum(stats, c.field, c.idx)
		if got != c.want || ok != c.ok {
			t.Errorf("statSum(%s,%d) = %d,%v, want %d,%v", c.field, c.idx, got, ok, c.want, c.ok)
		}
	}
	if _, ok := statSum(nil, "Depth", -1); ok {
		t.Error("nil stats reported a field")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 80, "higher"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("throughput 100 -> 80 is worse by %v, want 0.2", got)
	}
	if got := worseBy(100, 130, "lower"); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("latency 100 -> 130 is worse by %v, want 0.3", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("throughput 100 -> 120 reported worse by %v", got)
	}
}

// TestSmokeRounds runs a 50 ms round of every workload, untraced and
// traced, through the full audit. It measures nothing.
func TestSmokeRounds(t *testing.T) {
	tr := newTracer(1 << 14)
	cal := calibrate(tr)
	for i := range workloads {
		d := &workloads[i]
		for _, traced := range []bool{false, true} {
			spec := roundSpec{warm: 10 * time.Millisecond, measure: 50 * time.Millisecond, setups: 1}
			if traced {
				tr.reset()
				spec.tr = tr
			}
			res, err := runRound(d.mk(3), spec)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", d.name, traced, err)
			}
			for _, a := range res.audit {
				t.Errorf("%s (traced %v): audit: %s", d.name, traced, a)
			}
			if res.counts.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed", d.name, traced, res.counts.failed, res.counts.attempted)
			}
			if res.lat.total() == 0 {
				t.Errorf("%s (traced %v): no latency sample", d.name, traced)
			}
			if !traced {
				continue
			}
			if len(tr.recorded()) == 0 {
				t.Errorf("%s: traced round recorded no span", d.name)
			}
			for k := range tracedRound(d, &res, tr, cal, 1) {
				if _, ok := perLayer[k]; !ok {
					t.Errorf("%s: traced round reports %q, which perLayer does not declare", d.name, k)
				}
			}
		}
	}
}

// heldBack names the workloads the program runs but BENCHMARK.json does
// not register, because rt itself fails on them: payload_copy loses
// leases and hands handlers a nil view about once a minute (README.md,
// "Findings"). A benchmark issue registers it once rt is fixed.
var heldBack = map[string]bool{"payload_copy": true}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program in
// step: same workloads in the same order, same metric names and units.
func TestManifestMatchesProgram(t *testing.T) {
	path := findUp("BENCHMARK.json")
	if !fileExists(path) {
		t.Skip("no BENCHMARK.json beside or above the package")
	}
	var mf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		manifest
	}
	if err := readJSON(path, &mf); err != nil {
		t.Fatal(err)
	}
	// The manifest registers the program's workloads in the program's
	// order, except the ones held back (README.md, "Held back").
	var names []string
	for _, n := range workloadNames() {
		if !heldBack[n] {
			names = append(names, n)
		}
	}
	if len(mf.Workloads) != len(names) {
		t.Fatalf("manifest lists %d workloads, program registers %d", len(mf.Workloads), len(names))
	}
	for i, w := range mf.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, names[i])
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Errorf("manifest lists %d end-to-end metrics, program reports %d", len(mf.EndToEnd), len(endToEnd))
	}
	for _, d := range mf.EndToEnd {
		if units[d.Name] != d.Unit {
			t.Errorf("end-to-end %q: manifest unit %q, program %q", d.Name, d.Unit, units[d.Name])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Errorf("manifest lists %d per-layer metrics, program reports %d", len(mf.PerLayer), len(perLayer))
	}
	for _, d := range mf.PerLayer {
		if perLayer[d.Name] != d.Unit {
			t.Errorf("per-layer %q: manifest unit %q, program %q", d.Name, d.Unit, perLayer[d.Name])
		}
	}
}
