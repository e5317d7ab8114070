package rtbench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hurricane/rt"
)

func TestCentralServerBaseline(t *testing.T) {
	cs := NewCentralServer(func(ctx *rt.Ctx, args *rt.Args) { args[0]++ }, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var args rt.Args
			for i := 0; i < 100; i++ {
				cs.Call(1, &args)
			}
		}()
	}
	wg.Wait()
	if cs.Calls() != 800 {
		t.Fatalf("Calls = %d", cs.Calls())
	}
}

func TestChannelServerBaseline(t *testing.T) {
	cs := NewChannelServer(func(ctx *rt.Ctx, args *rt.Args) { args[0] += 2 }, 4)
	defer cs.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := make(chan struct{}, 1)
			var args rt.Args
			for i := 0; i < 100; i++ {
				cs.Call(1, &args, reply)
			}
			if args[0] != 200 {
				t.Errorf("args[0] = %d", args[0])
			}
		}()
	}
	wg.Wait()
}

// throughput runs call on goroutines goroutines for a fixed wall
// duration and returns the total calls made.
func throughput(goroutines int, d time.Duration, call func(g int, args *rt.Args)) int64 {
	var wg sync.WaitGroup
	results := make([]int64, goroutines)
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var args rt.Args
			for {
				select {
				case <-stop:
					return
				default:
				}
				call(g, &args)
				results[g]++
			}
		}(g)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	var total int64
	for _, n := range results {
		total += n
	}
	return total
}

// TestShardedBeatsChannelServer compares the PPC-style path against the
// message-passing baseline under parallel load. The channel server pays
// two scheduler handoffs per call, so the sharded path should win by a
// wide margin on any machine; this is the robust shape check (the
// mutex-baseline gap needs more cores than CI may have, so it is
// exercised by the benchmarks instead).
func TestShardedBeatsChannelServer(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput comparison")
	}
	handler := func(ctx *rt.Ctx, args *rt.Args) { args[0]++ }

	sys := rt.NewSystemOptions(rt.Options{})
	defer sys.Close()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "null", Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	g := runtime.GOMAXPROCS(0)
	const window = 150 * time.Millisecond

	clients := make([]*rt.Client, g)
	for i := range clients {
		clients[i] = sys.NewClientWith(rt.ClientOptions{Shard: -1})
	}
	sharded := throughput(g, window, func(gi int, args *rt.Args) {
		if err := clients[gi].Call(svc.EP(), args); err != nil {
			t.Error(err)
		}
	})

	cs := NewChannelServer(handler, g)
	defer cs.Close()
	replies := make([]chan struct{}, g)
	for i := range replies {
		replies[i] = make(chan struct{}, 1)
	}
	channel := throughput(g, window, func(gi int, args *rt.Args) { cs.Call(1, args, replies[gi]) })

	t.Logf("sharded=%d channel=%d (%.1fx) at GOMAXPROCS=%d", sharded, channel, float64(sharded)/float64(channel), g)
	// Race instrumentation slows the atomic-heavy sharded path far more
	// than the channel server and invalidates the ordering; the race
	// suite is a correctness gate, so the comparison is report-only
	// there. Without the race detector the observed gap is ~20x.
	if raceEnabled {
		return
	}
	if float64(sharded) < float64(channel)*1.3 {
		t.Fatalf("sharded path (%d calls) should outrun the channel server (%d calls)", sharded, channel)
	}
}
