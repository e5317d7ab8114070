package rtbench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hurricane/rt"
)

// The designs the paper argues against, as the strawmen of the call
// tables: a central locked server (every call takes one mutex and
// touches shared state — the direct uniprocessor translation), a
// channel server (every call is a message exchange with a fixed pool of
// server goroutines — a message-passing facility), and the channel
// async server the ring replaced. Each is functionally equivalent to
// rt's call for a handler that works on its argument block alone: the
// handler context they pass carries the caller's program and nothing
// else.

// Defaults shared with rt's (rt/shard.go).
const (
	baselineScratchBytes = 4096
	baselineWorkers      = 8
	baselineQueueCap     = 64
	baselineSubmitWait   = time.Millisecond
)

// baseDesc is a baseline's call descriptor: a handler context and the
// scratch buffer successive calls serially share.
type baseDesc struct {
	ctx     rt.Ctx
	scratch []byte
}

func newBaseDesc() *baseDesc {
	return &baseDesc{scratch: make([]byte, baselineScratchBytes)}
}

// centralServer is the locked baseline: one mutex, one shared
// descriptor pool, shared counters. Its sequential cost is close to
// the PPC-style path; its scaling is not.
type centralServer struct {
	mu      sync.Mutex
	handler rt.Handler
	free    []*baseDesc
	calls   int64
}

func newCentralServer(h rt.Handler) *centralServer {
	return &centralServer{handler: h}
}

// Call services one request under the central lock.
func (cs *centralServer) Call(program uint32, args *rt.Args) {
	cs.mu.Lock()
	var cd *baseDesc
	if n := len(cs.free); n > 0 {
		cd = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		cd = newBaseDesc()
	}
	cs.calls++
	cs.mu.Unlock()

	cd.ctx.CallerProgram = program
	cs.handler(&cd.ctx, args)

	cs.mu.Lock()
	cs.free = append(cs.free, cd)
	cs.mu.Unlock()
}

// Calls returns the shared call counter.
func (cs *centralServer) Calls() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.calls
}

// channelServer is the message-passing baseline: requests flow through
// a channel to a fixed pool of server goroutines and replies flow back
// through per-caller channels. Concurrency is capped by the pool size,
// and every call pays two channel handoffs (two scheduler round
// trips).
type channelServer struct {
	reqs    chan chanReq
	handler rt.Handler
	done    chan struct{}
}

type chanReq struct {
	args    *rt.Args
	program uint32
	reply   chan struct{}
}

// newChannelServer starts workers goroutines servicing the channel.
func newChannelServer(h rt.Handler, workers int) *channelServer {
	cs := &channelServer{
		reqs:    make(chan chanReq, workers*2),
		handler: h,
		done:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go cs.worker()
	}
	return cs
}

func (cs *channelServer) worker() {
	cd := newBaseDesc()
	for {
		select {
		case req := <-cs.reqs:
			cd.ctx.CallerProgram = req.program
			cs.handler(&cd.ctx, req.args)
			req.reply <- struct{}{}
		case <-cs.done:
			return
		}
	}
}

// Call sends the request and waits for the reply.
func (cs *channelServer) Call(program uint32, args *rt.Args, reply chan struct{}) {
	cs.reqs <- chanReq{args: args, program: program, reply: reply}
	<-reply
}

// Close stops the worker pool.
func (cs *channelServer) Close() { close(cs.done) }

// channelAsyncServer is the pre-ring asynchronous baseline, the before
// of the channel→ring substitution: submission is a non-blocking send
// into a buffered Go channel — each send taking the runtime-internal
// hchan lock and copying the request through it — serviced by a fixed
// worker pool that receives one request per scheduler wakeup, a shard's
// default pool and queue sizes. This is exactly the shape the shard
// async path had before the Vyukov ring.
type channelAsyncServer struct {
	q       chan chanAsyncReq
	handler rt.Handler
	stop    chan struct{}
	wg      sync.WaitGroup
}

type chanAsyncReq struct {
	args    rt.Args
	program uint32
}

func newChannelAsyncServer(h rt.Handler) *channelAsyncServer {
	cs := &channelAsyncServer{
		q:       make(chan chanAsyncReq, baselineQueueCap),
		handler: h,
		stop:    make(chan struct{}),
	}
	for i := 0; i < baselineWorkers; i++ {
		cs.wg.Add(1)
		go cs.worker()
	}
	return cs
}

func (cs *channelAsyncServer) worker() {
	defer cs.wg.Done()
	cd := newBaseDesc()
	handle := func(req *chanAsyncReq) {
		cd.ctx.CallerProgram = req.program
		cs.handler(&cd.ctx, &req.args)
	}
	for {
		select {
		case req := <-cs.q:
			handle(&req)
		case <-cs.stop:
			for {
				select {
				case req := <-cs.q:
					handle(&req)
				default:
					return
				}
			}
		}
	}
}

// AsyncCall submits one request: a non-blocking channel send, then a
// bounded timed wait, then rt.ErrBackpressure — the same overload
// contract as the ring path, paid through channel internals.
func (cs *channelAsyncServer) AsyncCall(program uint32, args *rt.Args) error {
	req := chanAsyncReq{args: *args, program: program}
	select {
	case cs.q <- req:
		return nil
	default:
	}
	timer := time.NewTimer(baselineSubmitWait)
	defer timer.Stop()
	select {
	case cs.q <- req:
		return nil
	case <-timer.C:
		return rt.ErrBackpressure
	}
}

// Close drains accepted requests and joins the workers.
func (cs *channelAsyncServer) Close() {
	close(cs.stop)
	cs.wg.Wait()
}

func TestCentralServerBaseline(t *testing.T) {
	cs := newCentralServer(func(ctx *rt.Ctx, args *rt.Args) { args[0]++ })
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
	cs := newChannelServer(func(ctx *rt.Ctx, args *rt.Args) { args[0] += 2 }, 4)
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

	cs := newChannelServer(handler, g)
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
