package main

import (
	"runtime"
	"time"

	"hurricane/rt"
)

// calib is what the tracer itself costs, so that per-layer times can be
// corrected for it.
type calib struct {
	clockPair float64 // two back-to-back clock reads, ns
	spanBias  float64 // measured duration of an empty span: what every span over-reports
	perKid    float64 // what a nested span adds to its parent's self time
}

// calibrate measures the tracer in a tight loop: the cost of a clock
// pair, and a first estimate of the span costs that reduceSpans
// replaces with the in-place measurement (tracer.blank) when a round
// recorded one. Each figure is the median of nine short batches, since
// the host takes the processor away often enough to spoil a single long
// one.
func calibrate(tr *tracer) calib {
	const batches = 9
	n := min(20000, tr.laneCap/2)
	var pair, bias, kid []float64
	for b := 0; b < batches; b++ {
		t0 := now()
		for i := 0; i < n; i++ {
			_ = now() - now()
		}
		pair = append(pair, float64(now()-t0)/float64(n))

		tr.reset()
		for i := 0; i < n; i++ {
			tr.blank(0)
		}
		c := spanCosts(tr.recorded())
		bias, kid = append(bias, c.spanBias), append(kid, c.perKid)
	}
	tr.reset()
	return calib{clockPair: median(pair), spanBias: median(bias), perKid: median(kid)}
}

// spanCosts derives the tracer's costs from the blank spans among
// spans: an empty leaf measures what a span over-reports, and a blank
// parent's self time is that plus what its one child cost it.
func spanCosts(spans []span) (c calib) {
	var leaf, parent hist
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		switch s.name {
		case spEmpty:
			leaf.add(s.end - s.start)
		case spBlank:
			if k := i + 1; k < len(spans) && spans[k].name == spEmpty && spans[k].end != 0 {
				parent.add((s.end - s.start) - (spans[k].end - spans[k].start))
			}
		}
	}
	c.spanBias = leaf.quantile(0.5)
	c.perKid = parent.quantile(0.5) - c.spanBias
	return c
}

// spanStats is one traced round's spans reduced to distributions: per
// span name the duration and the self time (both corrected for the
// tracer), the queue wait per lane (AsyncCall return -> handler entry),
// and the per-request cost of each Batch.Flush.
type spanStats struct {
	dur, self [numSpanNames]hist
	wait      [numLanes]hist
	flushReq  hist
}

// minBlanks is how many in-place blank spans a round needs before they
// replace the tight-loop calibration.
const minBlanks = 100

func reduceSpans(spans []span, c calib) *spanStats {
	st := &spanStats{}
	blanks := 0
	for i := range spans {
		if spans[i].name == spBlank {
			blanks++
		}
	}
	if blanks >= minBlanks {
		in := spanCosts(spans)
		c.spanBias, c.perKid = in.spanBias, in.perKid
	}
	self, kids := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		if self[i] < 0 {
			continue
		}
		d := float64(s.end-s.start) - c.spanBias
		st.dur[s.name].add(int64(max(d, 0)))
		st.self[s.name].add(int64(max(float64(self[i])-c.spanBias-float64(kids[i])*c.perKid, 0)))
		if s.name == spFlush && s.lane > 0 {
			st.flushReq.add(int64(max(d, 0)) / int64(s.lane))
		}
		if s.name == spHandler && s.parent >= 0 && int(s.parent) < len(spans) {
			if p := &spans[s.parent]; p.name == spAsyncCall && p.end != 0 && s.lane < numLanes {
				st.wait[s.lane].add(max(s.start-p.end, 0))
			}
		}
	}
	return st
}

// rate runs one short untraced round and returns operations per second.
func rate(mk func() workload, d time.Duration) float64 {
	res, err := runRound(mk, roundSpec{warm: d / 6, measure: d})
	if err != nil || res.wallNs == 0 {
		return 0
	}
	return float64(res.ops) / (float64(res.wallNs) / 1e9)
}

// extraNs is a differential probe: the per-operation cost of variant b
// over variant a, from interleaved short rounds (a b a b), so slow drift
// of the host falls on both sides.
func extraNs(a, b func() workload, scale float64) float64 {
	const d = 300 * time.Millisecond
	var ra, rb []float64
	for i := 0; i < 2; i++ {
		ra = append(ra, rate(a, d))
		rb = append(rb, rate(b, d))
	}
	ma, mb := median(ra), median(rb)
	if ma == 0 || mb == 0 {
		return 0
	}
	return scale * (1e9/mb - 1e9/ma)
}

// lostRatio spins on the clock for d and returns the share of that time
// lost in gaps longer than 20 us: time the host took away.
func lostRatio(d time.Duration) float64 {
	start := now()
	last, lost := start, int64(0)
	for last-start < int64(d) {
		t := now()
		if t-last > 20000 {
			lost += t - last
		}
		last = t
	}
	return float64(lost) / float64(last-start)
}

// systemCosts times the control-plane calls every set-up pays.
func systemCosts(m map[string]float64) {
	const n = 20
	var newNs, bindNs, statsNs, closeNs []float64
	for i := 0; i < n; i++ {
		t0 := now()
		sys := rt.NewSystemOptions(rt.Options{Shards: 1})
		t1 := now()
		svc, err := sys.Bind(rt.ServiceConfig{Name: "bench", Handler: func(*rt.Ctx, *rt.Args) {}})
		t2 := now()
		if err != nil {
			sys.Close()
			return
		}
		// One async request, so Close has a worker to join, as it does
		// after any real use.
		cl := sys.NewClientWith(rt.ClientOptions{Shard: 0})
		var args rt.Args
		_ = cl.AsyncCall(svc.EP(), &args)
		t3 := now()
		_ = sys.Stats()
		t4 := now()
		sys.Close()
		t5 := now()
		newNs, bindNs = append(newNs, float64(t1-t0)), append(bindNs, float64(t2-t1))
		statsNs, closeNs = append(statsNs, float64(t4-t3)), append(closeNs, float64(t5-t4))
	}
	m["rt.system.new_ns"], m["rt.system.bind_ns"] = median(newNs), median(bindNs)
	m["rt.system.stats_ns"], m["rt.system.close_ns"] = median(statsNs), median(closeNs)
}

// clientCycleNs is NewClientWith -> Call -> Client.Close on an open
// System: what each extra client adds to set-up.
func clientCycleNs() float64 {
	sys := rt.NewSystemOptions(rt.Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "bench", Handler: func(_ *rt.Ctx, a *rt.Args) { a[0]++ }})
	if err != nil {
		return 0
	}
	const n = 2000
	var args rt.Args
	t0 := now()
	for i := 0; i < n; i++ {
		cl := sys.NewClientWith(rt.ClientOptions{Shard: 0})
		if cl.Call(svc.EP(), &args) != nil {
			return 0
		}
		cl.Close()
	}
	return float64(now()-t0) / n
}

// idleCPURatio is process CPU over wall time for d of an open System
// with nothing to do — the floor rt's background goroutines put under
// every workload. armed adds one client that has made a deadline call,
// so the deadline executor and the timer wheel exist.
func idleCPURatio(armed bool, d time.Duration) float64 {
	sys := rt.NewSystemOptions(rt.Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "bench", Handler: func(*rt.Ctx, *rt.Args) {}})
	if err != nil {
		return 0
	}
	cl := sys.NewClientWith(rt.ClientOptions{Shard: 0})
	defer cl.Close()
	var args rt.Args
	if armed {
		err = cl.CallDeadline(svc.EP(), &args, time.Hour)
	} else {
		err = cl.AsyncCall(svc.EP(), &args)
	}
	if err != nil {
		return 0
	}
	runtime.GC()
	c0, t0 := cpuNow(), now()
	time.Sleep(d)
	return float64(cpuNow()-c0) / float64(now()-t0)
}
