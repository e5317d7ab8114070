package rtbench

import (
	"sync"
	"time"

	"hurricane/rt"
)

// This file implements the designs the paper argues against, as
// baselines for the benchmarks: a central locked server (every call
// takes one mutex and touches shared state — the direct uniprocessor
// translation) and a channel server (every call is a message exchange
// with a fixed pool of server goroutines — a message-passing facility).
// Both are functionally equivalent to rt's Client.Call for a handler
// that works on its argument block alone: the handler context they pass
// carries the caller's program and nothing else.

// Defaults shared with rt's (rt/shard.go).
const (
	baselineScratchBytes = 4096
	baselineQueueCap     = 64
	baselineSubmitWait   = time.Millisecond
)

// baseDesc is a baseline's call descriptor: a handler context and the
// scratch buffer successive calls serially share.
type baseDesc struct {
	ctx     rt.Ctx
	scratch []byte
}

func newBaseDesc(scratchBytes int) *baseDesc {
	return &baseDesc{scratch: make([]byte, scratchBytes)}
}

// CentralServer is the locked baseline: one mutex, one shared
// descriptor pool, shared counters. Its sequential cost is close to
// the PPC-style path; its scaling is not.
type CentralServer struct {
	mu       sync.Mutex
	handler  rt.Handler
	free     []*baseDesc
	calls    int64
	scratchN int
}

// NewCentralServer creates the locked baseline around a handler.
func NewCentralServer(h rt.Handler, scratchBytes int) *CentralServer {
	if h == nil {
		panic("rtbench: nil handler")
	}
	if scratchBytes <= 0 {
		scratchBytes = baselineScratchBytes
	}
	return &CentralServer{handler: h, scratchN: scratchBytes}
}

// Call services one request under the central lock.
func (cs *CentralServer) Call(program uint32, args *rt.Args) {
	cs.mu.Lock()
	var cd *baseDesc
	if n := len(cs.free); n > 0 {
		cd = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		cd = newBaseDesc(cs.scratchN)
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
func (cs *CentralServer) Calls() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.calls
}

// ChannelServer is the message-passing baseline: requests flow through
// a channel to a fixed pool of server goroutines and replies flow back
// through per-call channels. Concurrency is capped by the pool size,
// and every call pays two channel handoffs (two scheduler round
// trips).
type ChannelServer struct {
	reqs    chan chanReq
	handler rt.Handler
	done    chan struct{}
}

type chanReq struct {
	args    *rt.Args
	program uint32
	reply   chan struct{}
}

// NewChannelServer starts workers goroutines servicing the channel.
func NewChannelServer(h rt.Handler, workers int) *ChannelServer {
	if h == nil {
		panic("rtbench: nil handler")
	}
	if workers <= 0 {
		workers = 1
	}
	cs := &ChannelServer{
		reqs:    make(chan chanReq, workers*2),
		handler: h,
		done:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		go cs.worker()
	}
	return cs
}

func (cs *ChannelServer) worker() {
	cd := newBaseDesc(baselineScratchBytes)
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
func (cs *ChannelServer) Call(program uint32, args *rt.Args, reply chan struct{}) {
	cs.reqs <- chanReq{args: args, program: program, reply: reply}
	<-reply
}

// Close stops the worker pool.
func (cs *ChannelServer) Close() { close(cs.done) }

// ChannelAsyncServer is the pre-ring asynchronous baseline, kept so
// the benchmarks record before/after numbers for
// the channel→ring substitution: submission is a non-blocking send
// into a buffered Go channel — each send taking the runtime-internal
// hchan lock and copying the request through it — serviced by a fixed
// worker pool that receives one request per scheduler wakeup. This is
// exactly the shape the shard async path had before the Vyukov ring.
type ChannelAsyncServer struct {
	q          chan chanAsyncReq
	handler    rt.Handler
	stop       chan struct{}
	submitWait time.Duration
	wg         sync.WaitGroup
}

type chanAsyncReq struct {
	args    rt.Args
	program uint32
	done    chan<- struct{}
}

// NewChannelAsyncServer starts workers goroutines draining a queueCap
// channel.
func NewChannelAsyncServer(h rt.Handler, workers, queueCap int) *ChannelAsyncServer {
	if h == nil {
		panic("rtbench: nil handler")
	}
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = baselineQueueCap
	}
	cs := &ChannelAsyncServer{
		q:          make(chan chanAsyncReq, queueCap),
		handler:    h,
		stop:       make(chan struct{}),
		submitWait: baselineSubmitWait,
	}
	for i := 0; i < workers; i++ {
		cs.wg.Add(1)
		go cs.worker()
	}
	return cs
}

func (cs *ChannelAsyncServer) worker() {
	defer cs.wg.Done()
	cd := newBaseDesc(baselineScratchBytes)
	handle := func(req *chanAsyncReq) {
		cd.ctx.CallerProgram = req.program
		cs.handler(&cd.ctx, &req.args)
		if req.done != nil {
			req.done <- struct{}{}
		}
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
func (cs *ChannelAsyncServer) AsyncCall(program uint32, args *rt.Args, done chan<- struct{}) error {
	req := chanAsyncReq{args: *args, program: program, done: done}
	select {
	case cs.q <- req:
		return nil
	default:
	}
	timer := time.NewTimer(cs.submitWait)
	defer timer.Stop()
	select {
	case cs.q <- req:
		return nil
	case <-timer.C:
		return rt.ErrBackpressure
	}
}

// Close drains accepted requests and joins the workers.
func (cs *ChannelAsyncServer) Close() {
	close(cs.stop)
	cs.wg.Wait()
}
