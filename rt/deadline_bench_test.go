package rt

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// What the flat deadline scan costs (EXPERIMENTS.md E23, E25): every
// tick walks every executor of the shard, so the price is per executor —
// and a shard has as many as it has had deadline calls in flight at once,
// whatever its client count. BenchmarkDeadlineTickPopulation measures one
// walk over the two populations that differ: n idle clients that have
// each made a deadline call (one executor at every n) and n deadline calls
// in flight (n executors), with the executors' lines in cache (a 1 ms tick
// on an otherwise idle processor) and after everything was evicted (the
// processor did other work between ticks). With the n calls in flight it
// also prices one more client's CallDeadline (in-flight=n/call, ns/op):
// the pool's pop must not depend on how many executors are busy.

func BenchmarkDeadlineTickPopulation(b *testing.B) {
	// Walking this between ticks evicts every level of cache a core owns
	// (the cold case; allocated here so plain test runs never carry it).
	flush := make([]byte, 64<<20)
	measure := func(b *testing.B, sh *shard, name string) {
		for _, cold := range []bool{false, true} {
			state := "warm"
			if cold {
				state = "cold"
			}
			b.Run(name+"/"+state, func(b *testing.B) {
				var in time.Duration
				for i := 0; i < b.N; i++ {
					if cold {
						for j := 0; j < len(flush); j += 64 {
							flush[j]++
						}
					}
					start := time.Now()
					sh.expireDeadlines(sh.clock.read())
					in += time.Since(start)
				}
				b.ReportMetric(float64(in.Nanoseconds())/float64(b.N), "ns/tick")
			})
		}
	}
	for _, n := range []int{1, 100, 1_000, 10_000} {
		sys := newSystem(b, Options{Shards: 1})
		sh := &sys.shards[0]
		parked := make(chan struct{})
		svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				<-parked
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		// One completed CallDeadline each, in turn: the one executor they
		// all used is the whole list.
		clients := make([]*Client, n)
		for i := range clients {
			clients[i] = sys.NewClientWith(ClientOptions{})
			if err := clients[i].CallDeadline(svc.EP(), &Args{}, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
		if got := sh.deadlineExecs(); got != 1 {
			b.Fatalf("%d executors after %d idle clients, want 1", got, n)
		}
		measure(b, sh, fmt.Sprintf("idle-clients=%d", n))
		// The same clients, each inside a deadline call whose handler is
		// parked: n armed tickets, none due.
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if err := c.CallDeadline(svc.EP(), &Args{1}, time.Hour); err != nil {
					b.Error(err)
				}
			}(c)
		}
		for svc.inFlightTotal() != int64(n) {
			time.Sleep(100 * time.Microsecond)
		}
		if got := sh.deadlineExecs(); got != n {
			b.Fatalf("%d executors with %d calls in flight, want %d", got, n, n)
		}
		measure(b, sh, fmt.Sprintf("in-flight=%d", n))
		b.Run(fmt.Sprintf("in-flight=%d/call", n), func(b *testing.B) {
			c := sys.NewClientWith(ClientOptions{})
			var args Args
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer() // round -1 made the executor
				}
				if err := c.CallDeadline(svc.EP(), &args, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
		close(parked)
		wg.Wait()
		sys.Close()
	}
}

// BenchmarkDeadlineCallCallers: k clients of one shard in a CallDeadline
// loop at once, ns per call. They share the shard's executor pool — one
// head word — where through PR 19 each had an executor of its own
// (EXPERIMENTS.md E25).
func BenchmarkDeadlineCallCallers(b *testing.B) {
	for _, k := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("callers=%d", k), func(b *testing.B) {
			sys := newSystem(b, Options{Shards: 1})
			svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {}})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			for j := 0; j < k; j++ {
				c := sys.NewClientWith(ClientOptions{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					var args Args
					for i := 0; i < b.N/k+1; i++ {
						if err := c.CallDeadline(svc.EP(), &args, time.Hour); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
		})
	}
}

// BenchmarkDeadlineExpiryLateness: how late past d an expired call is
// actually released at the default tick, reported as late-ns/op (the
// contract: never negative, at most ~2 ticks). The handler outlives the
// deadline — it returns when the benchmark has its ErrDeadline — so
// every call orphans, and a tick the runtime delivered late shows as
// lateness, not as a call that completed.
func BenchmarkDeadlineExpiryLateness(b *testing.B) {
	sys := newSystem(b, Options{Shards: 1})
	release := make(chan struct{})
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		<-release
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	const d = time.Millisecond
	var late time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := c.CallDeadline(svc.EP(), &args, d); !errors.Is(err, ErrDeadline) {
			b.Fatalf("err = %v, want ErrDeadline", err)
		}
		late += time.Since(start) - d
		release <- struct{}{}
	}
	b.StopTimer()
	b.ReportMetric(float64(late.Nanoseconds())/float64(b.N), "late-ns/op")
}
