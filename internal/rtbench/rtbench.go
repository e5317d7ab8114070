// Package rtbench holds the rt latency/throughput benchmark bodies
// `go test -bench` (bench_test.go) gives names to. Each function has the
// testing.B shape.
//
// The async benchmarks measure sustained submit→complete throughput on
// a single shard: one producer pushing b.N requests through the shard's
// bounded queue while the worker pool drains them, timer stopped only
// after the last request has executed. Ring vs channel is therefore an
// apples-to-apples before/after of the queue substitution.
package rtbench

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hurricane/rt"
)

// FlushBatchSize is the batch the AsyncBatch bench flushes at — half
// the default ring, so two batches pipeline.
const FlushBatchSize = 32

// SyncCall measures the sequential PPC-style fast path. Since the
// held-CD change this is Figure 2's "hold CD" configuration: the first
// Call pins a descriptor to the client and the warm iterations never
// touch the pool. SyncCallPooled is the per-call pool discipline for
// comparison.
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.Call
func SyncCall(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClient()
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			b.Fatal(err)
		}
	}
}

// SyncCallDeadline is SyncCall with a (generous) per-call deadline
// armed on every iteration: the warm held-CD path plus the deadline
// machinery — ticket reuse, one expiry store into the ticket's deadline
// word, and the park-first handoff to the executor goroutine (one
// channel token each way, no timers). The rt_call → rt_call_deadline
// ratio is the full cost of making a sync call cancellable; on every
// P count it is floored by the two goroutine switches the
// caller↔executor handoff requires (HostPingPongChan is that floor;
// see EXPERIMENTS.md E19).
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.CallDeadline
func SyncCallDeadline(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClient()
	var args rt.Args
	const deadline = time.Hour // never expires; measures the arming cost
	if err := c.CallDeadline(svc.EP(), &args, deadline); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CallDeadline(svc.EP(), &args, deadline); err != nil {
			b.Fatal(err)
		}
	}
}

// SyncCallDeadlineShort is SyncCallDeadline with a deadline a few ticks
// out (4 ms). Arming is one store whatever the distance — there is no
// filing and no cascade left to price — so the pair differs only in
// that the shard tick's read of the deadline word finds it armed close
// to due; it is kept as the check that near and far cost the same. The
// calls still complete (the handler is instant); the deadline never
// fires.
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.CallDeadline
func SyncCallDeadlineShort(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClient()
	var args rt.Args
	const deadline = 4 * time.Millisecond // a few ticks out
	if err := c.CallDeadline(svc.EP(), &args, deadline); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CallDeadline(svc.EP(), &args, deadline); err != nil {
			b.Fatal(err)
		}
	}
}

// SyncCallParallel measures the shared-nothing path under full
// parallelism: one client (shard) per worker goroutine.
func SyncCallParallel(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		c := sys.NewClient()
		var args rt.Args
		for pb.Next() {
			if err := c.Call(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// SyncCallPooled measures the sequential fast path with the per-call
// pool discipline: every call pops a descriptor from the shard's
// Treiber free list and pushes it back — one CAS pair per call that
// the held configuration (SyncCall) does not pay.
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.CallPooled
func SyncCallPooled(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClient()
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CallPooled(svc.EP(), &args); err != nil {
			b.Fatal(err)
		}
	}
}

// SyncCallParallelPooled is SyncCallParallel on the pooled path: each
// worker's calls pop/push its shard's free list, so the scaling gap
// against SyncCallParallel is the cost of the pool CAS pair (and its
// cache-line bounce when workers share a shard).
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.CallPooled
func SyncCallParallelPooled(b *testing.B) {
	sys := rt.NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		c := sys.NewClient()
		var args rt.Args
		for pb.Next() {
			if err := c.CallPooled(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// CentralParallel is the locked baseline under the same load: one
// mutex and a shared pool on every call.
func CentralParallel(b *testing.B) {
	cs := NewCentralServer(func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}, 0)
	b.RunParallel(func(pb *testing.PB) {
		var args rt.Args
		for pb.Next() {
			cs.Call(1, &args)
		}
	})
}

// ChannelParallel is the synchronous message-passing baseline: two
// channel handoffs per call through a fixed server pool.
func ChannelParallel(b *testing.B) {
	cs := NewChannelServer(func(ctx *rt.Ctx, args *rt.Args) {
		args[0]++
	}, runtime.GOMAXPROCS(0))
	defer cs.Close()
	b.RunParallel(func(pb *testing.PB) {
		reply := make(chan struct{}, 1)
		var args rt.Args
		for pb.Next() {
			cs.Call(1, &args, reply)
		}
	})
}

// Async measures single-shard async submit→complete throughput on the
// lock-free ring path: ring push + doorbell wake on submit, batched
// dequeue + park-when-empty on drain.
func Async(b *testing.B) {
	sys := rt.NewSystemShards(1)
	defer sys.Close()
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "async", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := c.AsyncCall(svc.EP(), &args)
			if err == nil {
				break
			}
			if !errors.Is(err, rt.ErrBackpressure) {
				b.Fatal(err)
			}
		}
	}
	for handled.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncLanes is Async on a three-lane shard: the same closed-loop
// submit/drain cycle, but every request routes through the critical
// lane's ring and the weighted dequeue. Compared against rt_async_ring
// it prices the whole lane feature — routing, per-lane depth
// accounting, credit scan — on the warm path.
func AsyncLanes(b *testing.B) {
	sys := rt.NewSystemOptions(rt.Options{Shards: 1, Lanes: rt.NumLaneClasses})
	defer sys.Close()
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "asynclanes", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientWith(rt.ClientOptions{Shard: 0, Lane: rt.LaneCritical})
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := c.AsyncCall(svc.EP(), &args)
			if err == nil {
				break
			}
			if !errors.Is(err, rt.ErrBackpressure) {
				b.Fatal(err)
			}
		}
	}
	for handled.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncLanesTenant adds per-tenant admission on top of AsyncLanes: the
// client carries a tenant ID with an effectively unlimited budget, so
// the delta against rt_async_ring_lanes is exactly the token-bucket
// warm path (one bucket lookup plus one fetch-add per submit).
func AsyncLanesTenant(b *testing.B) {
	sys := rt.NewSystemOptions(rt.Options{Shards: 1, Lanes: rt.NumLaneClasses})
	defer sys.Close()
	if err := sys.ConfigureTenant(1, rt.TenantConfig{Rate: 1e9, Burst: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "asynctenant", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientWith(rt.ClientOptions{Shard: 0, Lane: rt.LaneCritical, Tenant: 1})
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := c.AsyncCall(svc.EP(), &args)
			if err == nil {
				break
			}
			if !errors.Is(err, rt.ErrBackpressure) {
				b.Fatal(err)
			}
		}
	}
	for handled.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncBatch measures the amortized submission path: stage
// FlushBatchSize requests, publish them with one admission and one
// wakeup, repeat until b.N requests have been accepted and executed.
func AsyncBatch(b *testing.B) {
	sys := rt.NewSystemShards(1)
	defer sys.Close()
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "asyncbatch", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	batch := c.NewBatch(svc.EP(), FlushBatchSize)
	var args rt.Args
	b.ResetTimer()
	submitted := 0
	for submitted < b.N {
		k := FlushBatchSize
		if left := b.N - submitted; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			batch.Add(&args)
		}
		n, err := batch.Flush()
		submitted += n
		if err != nil && !errors.Is(err, rt.ErrBackpressure) {
			b.Fatal(err)
		}
	}
	for handled.Load() != int64(submitted) {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncMultiProducer measures the contended shape the MPSC ring is
// designed for: every worker goroutine submits to the SAME shard, so
// producers race on the enqueue cursor (ring) or the hchan lock
// (channel baseline). Still single-shard submit→complete throughput —
// b.N requests total, timer stopped after the last one executes.
func AsyncMultiProducer(b *testing.B) {
	sys := rt.NewSystemShards(1)
	defer sys.Close()
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "asyncmp", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	var submitted atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := sys.NewClientOnShard(0)
		var args rt.Args
		for pb.Next() {
			for {
				err := c.AsyncCall(svc.EP(), &args)
				if err == nil {
					break
				}
				if !errors.Is(err, rt.ErrBackpressure) {
					b.Fatal(err)
				}
			}
			submitted.Add(1)
		}
	})
	for handled.Load() != submitted.Load() {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncChannelBaselineMultiProducer is AsyncMultiProducer against the
// pre-ring channel path: the same contended submitters serialize on the
// channel's internal lock.
func AsyncChannelBaselineMultiProducer(b *testing.B) {
	var handled atomic.Int64
	cs := NewChannelAsyncServer(func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}, 8, 64) // defaultMaxWorkers, defaultAsyncQueueCap
	defer cs.Close()
	var submitted atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var args rt.Args
		for pb.Next() {
			for {
				err := cs.AsyncCall(1, &args, nil)
				if err == nil {
					break
				}
				if !errors.Is(err, rt.ErrBackpressure) {
					b.Fatal(err)
				}
			}
			submitted.Add(1)
		}
	})
	for handled.Load() != submitted.Load() {
		runtime.Gosched()
	}
	b.StopTimer()
}

// AsyncChannelBaseline is the pre-ring path under the identical load
// shape: a buffered Go channel (hchan lock on every send, one
// scheduler wakeup per request) drained by the same-size worker pool.
// The Async/AsyncChannelBaseline ratio is the before/after of the
// channel→ring substitution.
func AsyncChannelBaseline(b *testing.B) {
	var handled atomic.Int64
	cs := NewChannelAsyncServer(func(ctx *rt.Ctx, args *rt.Args) {
		handled.Add(1)
	}, 8, 64) // defaultMaxWorkers, defaultAsyncQueueCap
	defer cs.Close()
	var args rt.Args
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := cs.AsyncCall(1, &args, nil)
			if err == nil {
				break
			}
			if !errors.Is(err, rt.ErrBackpressure) {
				b.Fatal(err)
			}
		}
	}
	for handled.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}
