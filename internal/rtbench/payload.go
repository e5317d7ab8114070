// The large-payload benchmark grid: the zero-copy scatter-gather path
// (AllocPayload → write in place → AttachPayload; the handler views the
// arena segment where it lies) against the copy baseline (the caller
// owns the bytes and AttachBytes memcpys them into the arena on every
// call). The grid spans 64 B to 1 MB so the artifact records where the
// descriptor publish starts to dominate the memcpy — the paper's
// remap-vs-copy trade, restated for a shared-address-space runtime.
//
// PayloadOffload is the third lane: AttachBytes above the staging
// threshold publishes a copy job to the shard's offload worker instead
// of copying inline, so the caller's cost is the descriptor publish
// while the memcpy overlaps with its next operation. The handler-side
// rendezvous (Ctx.Payload waits for staged bytes) keeps it honest: at
// GOMAXPROCS=1 there is no overlap to win, and the numbers say so.
package rtbench

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"hurricane/rt"
)

// PayloadSizes is the benchmark grid, 64 B to 1 MB.
var PayloadSizes = []int{64, 4 << 10, 64 << 10, 1 << 20}

func bindPayloadSink(b *testing.B, sys *rt.System) *rt.Service {
	b.Helper()
	// The handler touches O(1) bytes of the payload — first and last —
	// so the measured delta between the lanes is purely how the bytes
	// travel, not how they are consumed.
	svc, err := sys.Bind(rt.ServiceConfig{Name: "paysink", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		p := ctx.Payload(0)
		args[0] = uint64(p[0]) + uint64(p[len(p)-1])
	}})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// PayloadZeroCopy returns the zero-copy lane at size n: lease an arena
// segment, produce the bytes in place, attach the descriptor, call.
// No memcpy anywhere on the path; warm iterations are zero-alloc
// (pinned by rt's TestWarmPayloadCallAllocs).
//
//ppc:coldpath -- benchmark harness; the measured path is AllocPayload+Call
func PayloadZeroCopy(n int) func(*testing.B) {
	return func(b *testing.B) {
		sys := rt.NewSystem()
		defer sys.Close()
		svc := bindPayloadSink(b, sys)
		c := sys.NewClient()
		var args rt.Args
		oneCall := func(i int) {
			ref, buf, err := c.AllocPayload(n)
			if err != nil {
				b.Fatal(err)
			}
			buf[0], buf[n-1] = byte(i), byte(i>>8)
			args.AttachPayload(ref)
			if err := c.Call(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // warm: slab grown, descriptor held
			oneCall(i)
		}
		b.SetBytes(int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oneCall(i)
		}
	}
}

// PayloadCopy returns the copy baseline at size n: the caller's bytes
// live outside the arena, and every call pays a full memcpy into a
// leased segment (AttachBytes with the offload lane disabled). This is
// the "before" of the zero-copy comparison.
//
//ppc:coldpath -- benchmark harness; the measured path is AttachBytes(inline)+Call
func PayloadCopy(n int) func(*testing.B) {
	return func(b *testing.B) {
		sys := rt.NewSystemOptions(rt.Options{OffloadThreshold: -1})
		defer sys.Close()
		svc := bindPayloadSink(b, sys)
		c := sys.NewClient()
		var args rt.Args
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		oneCall := func() {
			if err := c.AttachBytes(&args, src); err != nil {
				b.Fatal(err)
			}
			if err := c.Call(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ { // warm
			oneCall()
		}
		b.SetBytes(int64(n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oneCall()
		}
	}
}

// payloadAsync is the shared body of the offload comparison: one
// producer streaming AttachBytes+AsyncCall submissions at a single
// shard, timer stopped after the last handler ran. In this shape the
// staged lane can actually win: the producer returns after the
// descriptor publish and the memcpy lands on the offload worker,
// overlapping with the next submission — given a spare processor. The
// inline lane memcpys on the producer, serializing copy and submit.
//
// A failed submission consumes the attached lease (the backout settles
// it, same as every error path), so the backpressure retry re-attaches.
func payloadAsync(b *testing.B, sys *rt.System, n int) {
	var handled atomic.Int64
	svc, err := sys.Bind(rt.ServiceConfig{Name: "paysink", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		p := ctx.Payload(0)
		args[0] = uint64(p[0]) + uint64(p[len(p)-1])
		handled.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args rt.Args
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	oneSubmit := func() {
		for {
			if err := c.AttachBytes(&args, src); err != nil {
				b.Fatal(err)
			}
			err := c.AsyncCall(svc.EP(), &args)
			if err == nil {
				return
			}
			if !errors.Is(err, rt.ErrBackpressure) {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ { // warm: workers spawned, slabs grown
		oneSubmit()
	}
	for handled.Load() != 16 {
		runtime.Gosched()
	}
	handled.Store(0)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneSubmit()
	}
	for handled.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

// PayloadOffload returns the staged lane at size n (at or above the
// default 64 KB threshold) in the pipelined async shape.
//
//ppc:coldpath -- benchmark harness; the measured path is AttachBytes(staged)+AsyncCall
func PayloadOffload(n int) func(*testing.B) {
	return func(b *testing.B) {
		sys := rt.NewSystemShards(1) // default threshold: n >= 64 KB stages
		defer sys.Close()
		payloadAsync(b, sys, n)
	}
}

// PayloadCopyAsync is PayloadOffload's baseline: the identical
// pipelined load with the lane disabled, so every AttachBytes memcpys
// inline on the producer.
//
//ppc:coldpath -- benchmark harness; the measured path is AttachBytes(inline)+AsyncCall
func PayloadCopyAsync(n int) func(*testing.B) {
	return func(b *testing.B) {
		sys := rt.NewSystemOptions(rt.Options{Shards: 1, OffloadThreshold: -1})
		defer sys.Close()
		payloadAsync(b, sys, n)
	}
}
