package rtbench

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Host floors: what one goroutine-to-goroutine round trip costs on this
// host with no rt code in it. rt's two goroutine handoffs (the deadline
// executor, the async worker) are judged against these — a handoff
// cannot beat the cheapest rendezvous the runtime offers, and which one
// is cheapest (spinning on a second processor, or parking and letting
// the waker's processor run the wakee) is a property of the host, to be
// measured rather than assumed: `go test -bench Host -cpu 1,2`.
// EXPERIMENTS.md E19 records the defining host's numbers.

// hostLine is one word alone on a cache line.
//
//ppc:padded
type hostLine struct {
	//ppc:hotline
	v atomic.Uint64
	_ [56]byte
}

// hostSpinWait spins until l holds want, yielding on every probe whose
// count has no bit of yieldMask set.
func hostSpinWait(l *hostLine, want uint64, yieldMask int) {
	for n := 1; l.v.Load() != want; n++ {
		if n&yieldMask == 0 {
			runtime.Gosched()
		}
	}
}

// HostPingPongSpin is a round trip between two goroutines that spin on
// one cache line each way: the best case for a handoff that keeps a
// second processor busy waiting. A yield every 1024 probes keeps the
// pair live when the peer's P is taken; with one P spinning cannot help
// at all — the peer only runs if we yield — so every probe yields and
// the benchmark degenerates to a yield ping-pong.
//
//ppc:coldpath -- benchmark harness; no rt path is measured
func HostPingPongSpin(b *testing.B) {
	yieldMask := 1023
	if runtime.GOMAXPROCS(0) == 1 {
		yieldMask = 0
	}
	var ping, pong hostLine
	n := uint64(b.N)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= n; i++ {
			hostSpinWait(&ping, i, yieldMask)
			pong.v.Store(i)
		}
	}()
	b.ResetTimer()
	for i := uint64(1); i <= n; i++ {
		ping.v.Store(i)
		hostSpinWait(&pong, i, yieldMask)
	}
	b.StopTimer()
	<-done
}

// HostPingPongChan is a round trip between two goroutines that block on
// one channel each way: each send readies the peer on the sender's own
// processor and the sender's block lets it run there — the rendezvous
// rt's handoffs use.
//
//ppc:coldpath -- benchmark harness; no rt path is measured
func HostPingPongChan(b *testing.B) {
	ping := make(chan struct{}, 1)
	pong := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping <- struct{}{}
		<-pong
	}
	b.StopTimer()
	close(ping)
	<-done
}

// HostGosched is one runtime.Gosched with a second goroutine runnable:
// the price of a single scheduler switch, the unit the yield-based
// waits rt used to have were built from. The b.N yields are split
// between two goroutines, which on one P strictly alternate.
//
//ppc:coldpath -- benchmark harness; no rt path is measured
func HostGosched(b *testing.B) {
	half := b.N / 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < half; i++ {
			runtime.Gosched()
		}
	}()
	b.ResetTimer()
	for i := half; i < b.N; i++ {
		runtime.Gosched()
	}
	<-done
}

// HostLockedOp is the host's price for one sync/atomic operation on a
// line the caller already owns, the unit rt's warm paths are budgeted
// in (docs/CALLPATH.md, //ppc:rmwbudget): Add, CompareAndSwap and Store
// — Go's atomic store is XCHG — are lock-prefixed instructions, Load is
// a plain one. Uncontended and back to back, so this is the floor: in
// place each one also drains the store buffer, and pays for whatever
// cache-missing stores the caller had in flight (EXPERIMENTS.md E20).
//
//ppc:coldpath -- benchmark harness; no rt path is measured
func HostLockedOp(b *testing.B) {
	var l hostLine
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.v.Add(1)
		}
	})
	b.Run("CAS", func(b *testing.B) {
		l.v.Store(0)
		for i := uint64(0); i < uint64(b.N); i++ {
			l.v.CompareAndSwap(i, i+1)
		}
	})
	b.Run("Store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.v.Store(uint64(i))
		}
	})
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.v.Load() // an atomic load is never elided
		}
	})
}
