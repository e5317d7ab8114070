package rt

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// What the flat deadline scan costs (EXPERIMENTS.md E23): every tick
// walks every registered executor, so the price is per registered
// executor, not per due deadline. BenchmarkDeadlineTickPopulation
// measures one walk at each population, with the executors' lines in
// cache (a 1 ms tick on an otherwise idle processor) and after
// everything was evicted (the processor did other work between ticks).

func BenchmarkDeadlineTickPopulation(b *testing.B) {
	// Walking this between ticks evicts every level of cache a core owns
	// (the cold case; allocated here so plain test runs never carry it).
	flush := make([]byte, 64<<20)
	for _, n := range []int{1, 100, 1_000, 10_000} {
		sys := NewSystemShards(1)
		svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			b.Fatal(err)
		}
		// One completed CallDeadline each: n executors registered and
		// parked, as n idle deadline-capable clients leave them.
		clients := make([]*Client, n)
		for i := range clients {
			clients[i] = sys.NewClientOnShard(0)
			var args Args
			if err := clients[i].CallDeadline(svc.EP(), &args, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
		sh := &sys.shards[0]
		if got := sh.deadlineExecs(); got != n {
			b.Fatalf("%d executors registered, want %d", got, n)
		}
		for _, cold := range []bool{false, true} {
			state := "warm"
			if cold {
				state = "cold"
			}
			b.Run(fmt.Sprintf("execs=%d/%s", n, state), func(b *testing.B) {
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
		for _, c := range clients {
			c.Release()
		}
		sys.Close()
	}
}

// BenchmarkDeadlineExpiryLateness: how late past d an expired call is
// actually released at the default tick, reported as late-ns/op (the
// contract: never negative, at most ~2 ticks). The handler outlives the
// deadline — it returns when the benchmark has its ErrDeadline — so
// every call orphans, and a tick the runtime delivered late shows as
// lateness, not as a call that completed.
func BenchmarkDeadlineExpiryLateness(b *testing.B) {
	sys := NewSystemShards(1)
	defer sys.Close()
	release := make(chan struct{})
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		<-release
	}})
	if err != nil {
		b.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
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
