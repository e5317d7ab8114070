package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

var epoch = time.Now()

// now reads the monotonic clock as ns since process start.
func now() int64 { return int64(time.Since(epoch)) }

// cpuNow is the process's user+system CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sampleEvery is the sampling period: sync paths time one call in
// sampleEvery individually, async paths stamp one request in
// sampleEvery, and a traced run records spans for the same ones.
const sampleEvery = 64

// traceBurst paces the tracing of the synchronous loops, which run
// fast enough to fill a lane of the span buffer in a tenth of a window:
// they trace every block for about a millisecond (2^20 ns) in every
// eight. Bursts, not an even one-in-n, because a traced call that comes
// after hundreds of untraced ones meets the tracer cold and reads 2-3x
// slow; inside a burst it is as warm as tracing every block keeps it.
func traceBurst(t int64) bool { return t>>20&7 == 0 }

// control is what the round driver shares with a workload's load
// goroutines and handlers.
type control struct {
	// The flags are read on every operation and written twice a round;
	// the padding keeps whatever the allocator places beside this small
	// object (rt's own per-call state, possibly) off their line.
	_         [8]uint64
	stop      atomic.Bool // load goroutines exit
	measuring atomic.Bool // inside the measured window: record latency
	tr        *tracer     // nil with tracing off
	_         [8]uint64
}

// counts is a workload's own bookkeeping for one round, read after the
// load goroutines have been joined. Everything covers the whole round
// (set-up operation, warm-up and window), so the audit can demand
// exact conservation.
type counts struct {
	attempted int64 // operations offered to rt
	failed    int64 // errors, verification mismatches, refusals the workload's contract forbids
	refusedOK int64 // refusals the workload's contract allows (open-loop shedding)
	firstErr  error // the first error behind failed, for the report

	offered, refused [numLanes]int64 // open loop only
	bytes            int64           // payload bytes attached
	flushes, short   int64           // Batch.Flush calls, and those that accepted less than staged

	depthSamples, depthSum, workerSum int64 // Stats() samples, traced runs only
	laneDepthSum                      [numLanes]int64
}

// workload is one benchmark shape. A value serves one round: setup,
// then start/join around the window, then teardown. Set-up timing uses
// setup and teardown alone.
type workload interface {
	// setup builds the System, binds the service, configures tenants,
	// creates the clients and completes one operation on each.
	setup() error
	// start launches the load goroutines; they run until ctl.stop.
	start(ctl *control)
	// completed is the number of operations completed and verified so
	// far; the driver reads it at both edges of the window.
	completed() int64
	// join waits for the load goroutines and for accepted work to
	// drain, and returns the round's counts plus any conservation
	// failures it saw.
	join() (counts, []string)
	// latency is the series lat_mid_ns and the tail metrics come from,
	// and how many operations one sample of it spans. A span of 0 says
	// the series is shaped by the harness, not by rt, and lat_mid_ns
	// must not be taken from it (see asyncW.latency).
	latency() (*hist, float64)
	// stats is System.Stats() of the open System.
	stats() any
	// teardown closes the clients and the System and audits what they
	// leave behind.
	teardown() []string
}

type roundSpec struct {
	warm, measure time.Duration
	setups        int     // timed build/first-op/close cycles before the round
	tr            *tracer // nil with tracing off
}

type roundResult struct {
	ops            int64 // completed and verified inside the window
	wallNs, cpuNs  int64
	mallocs        uint64
	heapMB         float64
	latPer         float64 // operations per latency sample
	lat, late      *hist   // late: how late an open-loop generator ran; nil for closed loops
	setupS         []float64
	counts         counts
	audit          []string
	statsLo, stats any // System.Stats() at the window's start (traced runs) and after the drain
}

// runRound runs one round of a workload on a freshly built System. The
// calling goroutine sleeps through the window; the only runnable
// harness goroutines inside it are the workload's own load goroutines.
//
//ppc:coldpath -- benchmark harness; the measured paths are rt's
func runRound(mk func() workload, spec roundSpec) (roundResult, error) {
	var res roundResult
	// The collector is held off while a set-up is timed and run between
	// cycles instead, so a cycle is never timed with a collection going
	// on beside it; what set-up allocates still shows in live_heap_mb.
	gc := debug.SetGCPercent(-1)
	for i := 0; i < spec.setups; i++ {
		w := mk()
		t0 := now()
		err := w.setup()
		dt := now() - t0
		res.audit = append(res.audit, w.teardown()...)
		if err != nil {
			debug.SetGCPercent(gc)
			return res, fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		res.setupS = append(res.setupS, float64(dt)/1e9)
		if i%10 == 9 {
			runtime.GC()
		}
	}
	debug.SetGCPercent(gc)
	// Collect what the set-up cycles left so no GC cycle starts inside
	// the window (the window itself allocates nothing).
	runtime.GC()

	w := mk()
	if err := w.setup(); err != nil {
		res.audit = append(res.audit, w.teardown()...)
		return res, fmt.Errorf("set-up: %w", err)
	}
	ctl := &control{tr: spec.tr}
	w.start(ctl)
	time.Sleep(spec.warm)

	if spec.tr != nil {
		res.statsLo = w.stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0 := cpuNow()
	ctl.measuring.Store(true)
	t0 := now()
	ops0 := w.completed()

	time.Sleep(spec.measure)

	ops1 := w.completed()
	t1 := now()
	ctl.measuring.Store(false)
	cpu1 := cpuNow()
	runtime.ReadMemStats(&ms)
	ctl.stop.Store(true)

	var drainAudit []string
	res.counts, drainAudit = w.join()
	res.ops, res.wallNs, res.cpuNs, res.mallocs = ops1-ops0, t1-t0, cpu1-cpu0, ms.Mallocs-mallocs0
	res.lat, res.latPer = w.latency()
	if g, ok := w.(interface{ lateness() *hist }); ok {
		res.late = g.lateness()
	}
	res.stats = w.stats()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / 1e6

	res.audit = append(res.audit, drainAudit...)
	if res.counts.failed > 0 {
		res.audit = append(res.audit, fmt.Sprintf("%d of %d operations failed; first error: %v",
			res.counts.failed, res.counts.attempted, res.counts.firstErr))
	}
	res.audit = append(res.audit, w.teardown()...)
	if res.ops <= 0 {
		res.audit = append(res.audit, "no operation completed inside the window")
	}
	return res, nil
}

// waitUntil yields until cond holds or d has passed.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := now() + int64(d)
	for !cond() {
		if now() > deadline {
			return false
		}
		runtime.Gosched()
	}
	return true
}
