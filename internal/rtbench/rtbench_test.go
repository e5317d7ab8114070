// Package rtbench is rt's `go test -bench` harness: the host floors, the
// synchronous and asynchronous call tables with the strawman servers each
// is judged against, the payload grid, and the open-loop sweep. It has
// only test files; the registered benchmark is bench/.
//
// Each load shape has one body and one table of rows. A row names a
// variant and how to make a caller of it; the body drives b.N calls
// through one caller, or through one per RunParallel goroutine. The held
// and ring rows are the in-harness reference each strawman ratio is read
// against.
//
//	go test -run '^$' -bench . ./internal/rtbench
package rtbench

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"hurricane/rt"
)

// caller makes one call or one accepted submission.
type caller func(args *rt.Args) error

// row is one variant of a load shape. start binds h behind the variant,
// registers its teardown with b.Cleanup and returns a maker of callers,
// one per goroutine that drives it.
type row struct {
	name     string
	parallel bool // one caller per RunParallel goroutine; else one caller
	start    func(b *testing.B, h rt.Handler) func() caller
}

// drive makes b.N calls through r's callers, timer started after set-up.
func drive(b *testing.B, r row, h rt.Handler) {
	newCaller := r.start(b, h)
	b.ResetTimer()
	if r.parallel {
		b.RunParallel(func(pb *testing.PB) {
			call, args := newCaller(), rt.Args{}
			for pb.Next() {
				if err := call(&args); err != nil {
					b.Error(err)
					return
				}
			}
		})
		return
	}
	call, args := newCaller(), rt.Args{}
	for i := 0; i < b.N; i++ {
		if err := call(&args); err != nil {
			b.Fatal(err)
		}
	}
}

// onRT is a row on a System built from opts, each caller a client built
// from copts; entry is the call the row measures. A client naming a
// tenant gets an effectively unlimited budget, so the row prices the
// bucket's warm path and nothing sheds.
func onRT(opts rt.Options, copts rt.ClientOptions, entry func(c *rt.Client, ep rt.EntryPointID, args *rt.Args) error) func(*testing.B, rt.Handler) func() caller {
	return func(b *testing.B, h rt.Handler) func() caller {
		sys := rt.NewSystemOptions(opts)
		b.Cleanup(sys.Close)
		if copts.Tenant != 0 {
			if err := sys.ConfigureTenant(copts.Tenant, rt.TenantConfig{Rate: 1e9, Burst: 1 << 30}); err != nil {
				b.Fatal(err)
			}
		}
		svc, err := sys.Bind(rt.ServiceConfig{Name: "bench", Handler: h})
		if err != nil {
			b.Fatal(err)
		}
		ep := svc.EP()
		return func() caller {
			c := sys.NewClientWith(copts)
			return func(args *rt.Args) error { return entry(c, ep, args) }
		}
	}
}

// untilAccepted retries submit while it reports a full queue.
func untilAccepted(submit func() error) error {
	for {
		if err := submit(); !errors.Is(err, rt.ErrBackpressure) {
			return err
		}
	}
}

// asyncCall is the async rows' entry: one AsyncCall, a full ring retried.
func asyncCall(c *rt.Client, ep rt.EntryPointID, args *rt.Args) error {
	return untilAccepted(func() error { return c.AsyncCall(ep, args) })
}

// syncRows: Figure 2's hold-CD configuration (held: the first Call pins
// a descriptor, warm calls never touch the pool) and the per-call pool
// discipline (pooled: a CAS pair per call on the shard's free list),
// sequential and one client per goroutine, then the two strawmen under
// the parallel load — one mutex and a shared pool on every call, and two
// channel handoffs per call through a fixed server pool.
var syncRows = []row{
	{"held", false, onRT(rt.Options{}, rt.ClientOptions{Shard: -1}, (*rt.Client).Call)},
	{"pooled", false, onRT(rt.Options{}, rt.ClientOptions{Shard: -1}, (*rt.Client).CallPooled)},
	{"held-parallel", true, onRT(rt.Options{}, rt.ClientOptions{Shard: -1}, (*rt.Client).Call)},
	{"pooled-parallel", true, onRT(rt.Options{}, rt.ClientOptions{Shard: -1}, (*rt.Client).CallPooled)},
	{"central-parallel", true, func(b *testing.B, h rt.Handler) func() caller {
		cs := newCentralServer(h)
		return func() caller {
			return func(args *rt.Args) error { cs.Call(1, args); return nil }
		}
	}},
	{"channel-parallel", true, func(b *testing.B, h rt.Handler) func() caller {
		cs := newChannelServer(h, runtime.GOMAXPROCS(0))
		b.Cleanup(cs.Close)
		return func() caller {
			reply := make(chan struct{}, 1)
			return func(args *rt.Args) error { cs.Call(1, args, reply); return nil }
		}
	}},
}

// BenchmarkSyncCall runs the synchronous table: a null handler, one call
// per iteration.
func BenchmarkSyncCall(b *testing.B) {
	for _, r := range syncRows {
		b.Run(r.name, func(b *testing.B) {
			drive(b, r, func(ctx *rt.Ctx, args *rt.Args) { args[0]++ })
		})
	}
}

// channelAsync is the pre-ring channel path as a row.
func channelAsync(b *testing.B, h rt.Handler) func() caller {
	cs := newChannelAsyncServer(h)
	b.Cleanup(cs.Close)
	return func() caller {
		return func(args *rt.Args) error {
			return untilAccepted(func() error { return cs.AsyncCall(1, args) })
		}
	}
}

// asyncRows: one shard's ring with one producer and with every
// goroutine producing (the MPSC shape the ring is built for), the ring
// behind a three-lane shard's critical lane and weighted claim, the same
// with per-tenant admission on top, and the pre-ring channel path under
// both producer counts — the before of the channel→ring substitution.
var asyncRows = []row{
	{"ring", false, onRT(rt.Options{Shards: 1}, rt.ClientOptions{}, asyncCall)},
	{"ring-parallel", true, onRT(rt.Options{Shards: 1}, rt.ClientOptions{}, asyncCall)},
	{"lanes", false, onRT(rt.Options{Shards: 1, Lanes: rt.NumLaneClasses}, rt.ClientOptions{Lane: rt.LaneCritical}, asyncCall)},
	{"lanes-tenant", false, onRT(rt.Options{Shards: 1, Lanes: rt.NumLaneClasses}, rt.ClientOptions{Lane: rt.LaneCritical, Tenant: 1}, asyncCall)},
	{"channel", false, channelAsync},
	{"channel-parallel", true, channelAsync},
}

// BenchmarkAsyncCall runs the asynchronous table: sustained
// submit→complete throughput on one shard, a full queue retried, the
// timer stopped only after the last request has run.
func BenchmarkAsyncCall(b *testing.B) {
	for _, r := range asyncRows {
		b.Run(r.name, func(b *testing.B) {
			var handled atomic.Int64
			drive(b, r, func(*rt.Ctx, *rt.Args) { handled.Add(1) })
			for handled.Load() != int64(b.N) && !b.Failed() {
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}
