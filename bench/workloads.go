package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// wlDef is one registered workload: how to build a round of it, and
// which differential probes its traced run adds.
type wlDef struct {
	name string
	mk   func(seed uint64) func() workload
	// callers is how many closed-loop callers share ops_per_sec, so a
	// traced run can turn it into time per call; 0 where caller and
	// worker overlap and no such sum exists.
	callers func() int
	probes  func(seed uint64, cal calib, m map[string]float64)
}

func nproc() int { return runtime.NumCPU() }
func one() int   { return 1 }

func syncMk(cfg syncCfg) func(uint64) func() workload {
	return func(seed uint64) func() workload {
		cfg := cfg
		cfg.seed = seed
		return func() workload { return newSync(cfg) }
	}
}

func asyncMk(cfg asyncCfg) func(uint64) func() workload {
	return func(seed uint64) func() workload {
		cfg := cfg
		cfg.seed = seed
		if cfg.payload > 0 {
			cfg.src, cfg.want = payloadSources(cfg.payload, seed)
		}
		return func() workload { return newAsync(cfg) }
	}
}

var (
	heldCfg     = syncCfg{kind: kindCall}
	sharedCfg   = syncCfg{kind: kindCall, shared: true}
	oneCall     = syncCfg{kind: kindCall, callers: 1}
	deadlineCfg = syncCfg{kind: kindDeadline, callers: 1, deadline: time.Hour}
	singleCfg   = asyncCfg{window: asyncWindow}
)

// workloads is the registry, in the order BENCHMARK.json lists them
// and a pass over all of them runs them.
// Why each exists is recorded there and in README.md.
var workloads = []wlDef{
	{name: "sync_held", mk: syncMk(heldCfg), callers: nproc, probes: func(seed uint64, cal calib, m map[string]float64) {
		// Figure 3's disjoint curve as one number: nproc callers against
		// nproc times one caller.
		n := float64(nproc())
		if r1 := rate(syncMk(oneCall)(seed), 300*time.Millisecond); r1 > 0 {
			m["rt.client.scaling_eff"] = rate(syncMk(heldCfg)(seed), 300*time.Millisecond) / (n * r1)
		}
		pooled, gated := oneCall, oneCall
		pooled.kind, gated.health = kindPooled, true
		m["rt.client.pooled_extra_ns"] = extraNs(syncMk(oneCall)(seed), syncMk(pooled)(seed), 1)
		m["rt.health.gate_extra_ns"] = extraNs(syncMk(oneCall)(seed), syncMk(gated)(seed), 1)
	}},
	{name: "sync_shared", mk: syncMk(sharedCfg), callers: nproc, probes: func(seed uint64, cal calib, m map[string]float64) {
		if held := rate(syncMk(heldCfg)(seed), 300*time.Millisecond); held > 0 {
			m["rt.client.shared_ratio"] = rate(syncMk(sharedCfg)(seed), 300*time.Millisecond) / held
		}
		pooled := sharedCfg
		pooled.kind = kindPooled
		m["rt.client.pooled_extra_shared_ns"] = extraNs(syncMk(sharedCfg)(seed), syncMk(pooled)(seed), float64(nproc()))
	}},
	{name: "async_single", mk: asyncMk(singleCfg), probes: func(seed uint64, cal calib, m map[string]float64) {
		laned, tenant := singleCfg, singleCfg
		laned.lanes, tenant.tenant = numLanes, true
		m["rt.lane.submit_extra_ns"] = extraNs(asyncMk(singleCfg)(seed), asyncMk(laned)(seed), 1)
		m["rt.tenant.admit_extra_ns"] = extraNs(asyncMk(singleCfg)(seed), asyncMk(tenant)(seed), 1)
	}},
	{name: "deadline_call", mk: syncMk(deadlineCfg), callers: one, probes: func(seed uint64, cal calib, m map[string]float64) {
		near := deadlineCfg
		near.deadline = 4 * time.Millisecond
		m["rt.wheel.near_extra_ns"] = extraNs(syncMk(deadlineCfg)(seed), syncMk(near)(seed), 1)
		// The handoff is what CallDeadline costs beyond the held call it
		// wraps, so this run also traces a held call and takes it off the
		// CallDeadline self time the traced rounds left in the metric.
		tr := newTracer(1 << 16)
		if _, err := runRound(syncMk(oneCall)(seed), roundSpec{warm: 50 * time.Millisecond, measure: 200 * time.Millisecond, tr: tr}); err == nil {
			m["rt.client.call_self_ns"] = reduceSpans(tr.recorded(), cal).self[spCall].midmean()
		}
		m["rt.deadline.handoff_ns"] = max(m["rt.deadline.handoff_ns"]-m["rt.client.call_self_ns"], 0)
	}},
	{name: "payload_zc", mk: syncMk(syncCfg{kind: kindPayload, callers: 1}), callers: one},
	{name: "payload_copy", mk: asyncMk(asyncCfg{window: copyWindow, payload: copyBytes})},
	{name: "lanes_overload", mk: func(seed uint64) func() workload {
		return func() workload { return newLanes(seed) }
	}},
	// Last, because every System that ever made a Batch stays live for
	// the rest of the process (README.md, "Findings"): in a pass over all
	// workloads it would otherwise sit in the live heap of the ones after.
	{name: "async_batch", mk: asyncMk(asyncCfg{window: asyncWindow, batch: true})},
}

func workloadNames() []string {
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
	}
	return names
}

// perLayer names every metric a traced run reports, for any workload.
// A metric a workload does not exercise is reported as 0: the driver
// wants every name from every run.
var perLayer = map[string]string{
	"rt.client.call_self_ns": "ns", "rt.client.scaling_eff": "1", "rt.client.shared_ratio": "1",
	"rt.client.pooled_extra_ns": "ns", "rt.client.pooled_extra_shared_ns": "ns",
	"rt.ring.submit_ns": "ns", "rt.ring.refused": "count",
	"rt.shard.queue_wait_p50_ns": "ns", "rt.shard.depth_mean": "count", "rt.shard.workers": "count", "rt.shard.cds_created": "count",
	"rt.batch.add_ns": "ns", "rt.batch.flush_ns_per_req": "ns", "rt.batch.short_flush_ratio": "1",
	"rt.lane.submit_extra_ns":            "ns",
	"rt.lane.queue_wait_p50_ns.critical": "ns", "rt.lane.queue_wait_p50_ns.normal": "ns", "rt.lane.queue_wait_p50_ns.besteffort": "ns",
	"rt.lane.shed_ratio.critical": "1", "rt.lane.shed_ratio.normal": "1", "rt.lane.shed_ratio.besteffort": "1",
	"rt.lane.depth_mean.critical": "count", "rt.lane.depth_mean.normal": "count", "rt.lane.depth_mean.besteffort": "count",
	"rt.tenant.admit_extra_ns": "ns", "rt.tenant.throttled": "count",
	"rt.health.gate_extra_ns": "ns",
	"rt.deadline.handoff_ns":  "ns", "rt.deadline.expired": "count", "rt.wheel.near_extra_ns": "ns",
	"rt.arena.alloc_ns": "ns", "rt.arena.grows": "count", "rt.arena.leases_end": "count",
	"rt.payload.attach_ns": "ns", "rt.payload.view_ns": "ns", "rt.payload.copy_gbps": "GB/s",
	"rt.offload.offloaded_ratio": "1",
	"rt.owner.client_cycle_ns":   "ns",
	"rt.watchdog.idle_cpu_ratio": "1", "rt.watchdog.armed_cpu_ratio": "1",
	"rt.system.new_ns": "ns", "rt.system.bind_ns": "ns", "rt.system.close_ns": "ns", "rt.system.stats_ns": "ns",
	"handler_ns": "ns", "harness.op_self_ns": "ns", "unaccounted_ns": "ns", "untraced_ns_per_call": "ns",
	"gen.late_p50_ns": "ns", "gen.late_p99_ns": "ns", "gen.clock_ns": "ns", "host.lost_ratio": "1",
	"trace.overhead_ratio": "1", "trace.span_cost_ns": "ns", "trace.dropped_ratio": "1", "trace.spans": "count",
	"allocs_per_op": "1", "fail_ratio": "1",
	"tail.p50_ns": "ns", "tail.p90_ns": "ns", "tail.p99_ns": "ns", "tail.p999_ns": "ns", "tail.samples": "count",
}

// runTraced is the separate traced run: one untraced round (the base
// for the tracing overhead and for the allocation and failure ratios),
// then traced rounds whose spans and counters give the per-layer
// numbers, then the workload's differential probes. Every per-layer
// metric is the midmean across the traced rounds.
func runTraced(d *wlDef, p plan) *report {
	rep := &report{Correct: true, Metrics: map[string]value{}}
	m := map[string]float64{}
	lostBefore := lostRatio(300 * time.Millisecond)

	tr := newTracer(traceCap)
	cal := calibrate(tr)
	m["gen.clock_ns"], m["trace.span_cost_ns"] = cal.clockPair, cal.spanBias+cal.perKid

	measure := p.measure * 6 / 10
	spec := roundSpec{warm: min(p.warm, measure/4), measure: measure}
	base := runUntraced(d, plan{seed: p.seed, rounds: 1, measure: measure, warm: spec.warm})
	rep.Audit = append(rep.Audit, base.Audit...)
	rep.Attempted, rep.Failed = base.Attempted, base.Failed
	for _, k := range []string{"allocs_per_op", "fail_ratio", "tail.p50_ns", "tail.p90_ns", "tail.p99_ns", "tail.p999_ns", "tail.samples"} {
		m[k] = base.Info[k].Value
	}
	baseOps := base.Metrics["ops_per_sec"].Value

	series := map[string][]float64{}
	spec.tr = tr
	for r := 0; r < max(p.rounds-2, 1); r++ {
		tr.reset()
		res, err := runRound(d.mk(p.seed), spec)
		rep.Audit = append(rep.Audit, res.audit...)
		if err != nil {
			rep.Audit = append(rep.Audit, err.Error())
			break
		}
		rep.Attempted += res.counts.attempted
		rep.Failed += res.counts.failed
		for k, v := range tracedRound(d, &res, tr, cal, baseOps) {
			series[k] = append(series[k], v)
		}
	}
	for k, vs := range series {
		m[k] = midmean(vs)
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		rep.Audit = append(rep.Audit, err.Error())
	} else if err := writeTrace(filepath.Join(outDir(), "trace-"+d.name+".jsonl"), tr.recorded(), 50000); err != nil {
		rep.Audit = append(rep.Audit, err.Error())
	}
	tr = nil // the probes below run untraced; let the buffer go

	if d.probes != nil {
		d.probes(p.seed, cal, m)
	}
	systemCosts(m)
	m["rt.owner.client_cycle_ns"] = clientCycleNs()
	m["rt.watchdog.idle_cpu_ratio"] = idleCPURatio(false, 400*time.Millisecond)
	m["rt.watchdog.armed_cpu_ratio"] = idleCPURatio(true, 400*time.Millisecond)
	m["host.lost_ratio"] = max(lostBefore, lostRatio(300*time.Millisecond))

	for name, unit := range perLayer {
		rep.Metrics[name] = value{Value: m[name], Unit: unit}
	}
	rep.Noisy = m["gen.late_p50_ns"] > 1000 || m["host.lost_ratio"] > 0.15
	if rep.Noisy {
		fmt.Printf("%-16s NOISY: gen.late_p50_ns %.0f, host.lost_ratio %.3f\n", d.name, m["gen.late_p50_ns"], m["host.lost_ratio"])
	}
	if len(rep.Audit) > 0 || rep.Attempted < 1 {
		rep.Correct = false
	}
	return rep
}

// tracedRound turns one traced round into per-layer numbers: midmeans
// of span self times and durations, and counters read off System.Stats().
func tracedRound(d *wlDef, res *roundResult, tr *tracer, cal calib, baseOps float64) map[string]float64 {
	m := map[string]float64{}
	spans := tr.recorded()
	st := reduceSpans(spans, cal)
	// Span times use the midmean, like lat_mid_ns: the ledger below adds
	// them up against a mean, and a median does not add.
	sec := float64(res.wallNs) / 1e9
	c := &res.counts

	m["trace.spans"] = float64(len(spans))
	m["trace.dropped_ratio"] = float64(tr.dropped.Load()) / float64(max(int64(len(spans))+tr.dropped.Load(), 1))
	if baseOps > 0 {
		m["trace.overhead_ratio"] = float64(res.ops) / sec / baseOps
	}
	m["rt.client.call_self_ns"] = st.self[spCall].midmean()
	m["rt.deadline.handoff_ns"] = st.self[spCallDeadline].midmean() // deadline_call's probe takes the held call off
	m["handler_ns"] = st.self[spHandler].midmean()
	m["harness.op_self_ns"] = st.self[spOp].midmean()
	m["rt.ring.submit_ns"] = st.dur[spAsyncCall].midmean()
	m["rt.batch.add_ns"] = st.dur[spAdd].midmean()
	m["rt.batch.flush_ns_per_req"] = st.flushReq.midmean()
	m["rt.arena.alloc_ns"] = st.dur[spAlloc].midmean()
	m["rt.payload.attach_ns"] = st.dur[spAttachBytes].midmean()
	m["rt.payload.view_ns"] = st.dur[spView].midmean()

	if d.callers != nil && baseOps > 0 {
		// Figure 2's ledger for a closed synchronous loop: the layers'
		// self times against the untraced time per call, the rest
		// unaccounted (loop, result check, what the spans cannot see).
		perCall := float64(d.callers()) * 1e9 / baseOps
		sum := 0.0
		for _, n := range []uint8{spOp, spAlloc, spCall, spCallDeadline, spHandler, spView} {
			sum += st.self[n].midmean()
		}
		m["untraced_ns_per_call"] = perCall
		m["unaccounted_ns"] = perCall - sum
	}

	all := &hist{}
	for l := range st.wait {
		all.merge(&st.wait[l])
	}
	m["rt.shard.queue_wait_p50_ns"] = all.quantile(0.5)
	if c.offered[laneCritical] > 0 {
		for l, name := range laneNames {
			m["rt.lane.queue_wait_p50_ns."+name] = st.wait[l].quantile(0.5)
			m["rt.lane.shed_ratio."+name] = float64(c.refused[l]) / float64(max(c.offered[l], 1))
			if c.depthSamples > 0 {
				m["rt.lane.depth_mean."+name] = float64(c.laneDepthSum[l]) / float64(c.depthSamples)
			}
		}
	}
	if c.depthSamples > 0 {
		m["rt.shard.depth_mean"] = float64(c.depthSum) / float64(c.depthSamples)
		m["rt.shard.workers"] = float64(c.workerSum) / float64(c.depthSamples)
	}
	if c.flushes > 0 {
		m["rt.batch.short_flush_ratio"] = float64(c.short) / float64(c.flushes)
	}
	if res.late != nil {
		m["gen.late_p50_ns"], m["gen.late_p99_ns"] = res.late.quantile(0.5), res.late.quantile(0.99)
	}

	// A field rt no longer reports leaves its metric out (reported 0).
	stat := func(metric, field string, delta bool) {
		hi, ok := statSum(res.stats, field, -1)
		if !ok {
			return
		}
		if lo, ok := statSum(res.statsLo, field, -1); ok && delta {
			hi -= lo
		}
		m[metric] = float64(hi)
	}
	stat("rt.ring.refused", "BackpressureRejects", false)
	stat("rt.shard.cds_created", "CDsCreated", true)
	stat("rt.tenant.throttled", "TenantThrottled", false)
	stat("rt.deadline.expired", "DeadlineExpirations", false)
	stat("rt.arena.grows", "ArenaGrows", true)
	stat("rt.arena.leases_end", "LeasesActive", false)
	if c.bytes > 0 {
		m["rt.payload.copy_gbps"] = float64(c.bytes) / float64(max(c.attempted, 1)) * float64(res.ops) / sec / 1e9
		if off, ok := statSum(res.stats, "OffloadedBytes", -1); ok {
			m["rt.offload.offloaded_ratio"] = float64(off) / float64(c.bytes)
		}
	}
	return m
}
