// The large-payload grid: the zero-copy scatter-gather path
// (AllocPayload → write in place → AttachPayload; the handler views the
// arena segment where it lies) against the copy baseline (the caller
// owns the bytes and AttachBytes memcpys them into the arena on every
// call). The grid spans 64 B to 1 MB so it records where the descriptor
// publish starts to dominate the memcpy — the paper's remap-vs-copy
// trade, restated for a shared-address-space runtime.
//
// The offload pair is the third lane: AttachBytes above the staging
// threshold publishes a copy job to the shard's offload worker instead
// of copying inline, so the caller's cost is the descriptor publish
// while the memcpy overlaps with its next operation. The handler-side
// rendezvous (Ctx.Payload waits for staged bytes) keeps it honest: at
// GOMAXPROCS=1 there is no overlap to win, and the numbers say so.
package rtbench

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"hurricane/rt"
)

// payloadSizes is the grid, 64 B to 1 MB.
var payloadSizes = []int{64, 4 << 10, 64 << 10, 1 << 20}

// bindPayloadSink binds a handler that touches O(1) bytes of the payload
// — first and last — so the measured delta between the lanes is purely
// how the bytes travel, not how they are consumed; a non-nil handled
// counts its runs.
func bindPayloadSink(b *testing.B, sys *rt.System, handled *atomic.Int64) *rt.Service {
	b.Helper()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "paysink", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		p := ctx.Payload(0)
		args[0] = uint64(p[0]) + uint64(p[len(p)-1])
		if handled != nil {
			handled.Add(1)
		}
	}})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkPayload is the synchronous grid, {zero-copy, copy} × size.
// zero-copy leases an arena segment, produces the bytes in place,
// attaches the descriptor and calls: no memcpy anywhere on the path, and
// warm iterations are zero-alloc (pinned by rt's
// TestWarmPayloadCallAllocs). copy is its before: the caller's bytes
// live outside the arena and every call memcpys them into a leased
// segment (AttachBytes with the offload lane disabled).
func BenchmarkPayload(b *testing.B) {
	for _, zeroCopy := range []bool{true, false} {
		for _, n := range payloadSizes {
			name := fmt.Sprintf("copy/size=%d", n)
			if zeroCopy {
				name = "zero-" + name
			}
			b.Run(name, func(b *testing.B) {
				sys := rt.NewSystemOptions(rt.Options{OffloadThreshold: -1})
				defer sys.Close()
				svc := bindPayloadSink(b, sys, nil)
				c := sys.NewClientWith(rt.ClientOptions{Shard: -1})
				var args rt.Args
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(i)
				}
				oneCall := func(i int) {
					if zeroCopy {
						ref, buf, err := c.AllocPayload(n)
						if err != nil {
							b.Fatal(err)
						}
						buf[0], buf[n-1] = byte(i), byte(i>>8)
						args.AttachPayload(ref)
					} else if err := c.AttachBytes(&args, src); err != nil {
						b.Fatal(err)
					}
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
			})
		}
	}
}

// BenchmarkPayloadAsync is the offload pair: one producer streaming
// AttachBytes+AsyncCall submissions at a single shard, timer stopped
// after the last handler ran. In this shape the staged lane can win: the
// producer returns after the descriptor publish and the memcpy lands on
// the offload worker, overlapping with the next submission — given a
// spare processor. The inline lane memcpys on the producer, serializing
// copy and submit.
//
// A failed submission consumes the attached lease (the backout settles
// it, same as every error path), so the backpressure retry re-attaches.
func BenchmarkPayloadAsync(b *testing.B) {
	for _, lane := range []struct {
		name      string
		threshold int // 0: the default 64 KB, so every size here stages
	}{{"staged", 0}, {"inline", -1}} {
		for _, n := range []int{64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/size=%d", lane.name, n), func(b *testing.B) {
				sys := rt.NewSystemOptions(rt.Options{Shards: 1, OffloadThreshold: lane.threshold})
				defer sys.Close()
				var handled atomic.Int64
				svc := bindPayloadSink(b, sys, &handled)
				c := sys.NewClientWith(rt.ClientOptions{})
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
			})
		}
	}
}
