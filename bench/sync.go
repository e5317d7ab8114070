package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hurricane/rt"
)

// base is the rt state every workload holds, and the teardown audit
// every round ends with.
type base struct {
	sys     *rt.System
	ep      rt.EntryPointID
	clients []*rt.Client
	idle    []*rt.Client // hold their place in memory, never called in a window; see syncW.setup
	ctl     *control
}

func (b *base) stats() any {
	if b.sys == nil {
		return nil
	}
	return b.sys.Stats()
}

// teardown closes the clients, checks that nothing they owned is left
// on any shard, and closes the System.
func (b *base) teardown() []string {
	if b.sys == nil {
		return nil
	}
	for _, c := range append(b.clients, b.idle...) {
		c.Close()
	}
	// A worker settles a request's lease after the handler has returned,
	// so the gauges may trail the last completion by a moment.
	var audit []string
	gauges := []string{"LeasesActive", "HeldCDs", "QuarantinedCDs"}
	waitUntil(time.Second, func() bool {
		st := b.sys.Stats()
		for _, f := range gauges {
			if v, ok := statSum(st, f, -1); ok && v != 0 {
				return false
			}
		}
		return true
	})
	st := b.sys.Stats()
	for _, f := range gauges {
		if v, ok := statSum(st, f, -1); ok && v != 0 {
			audit = append(audit, fmt.Sprintf("%s = %d after the drain, want 0", f, v))
		}
	}
	b.sys.Close()
	// rt attaches a cleanup to every Client whose argument reaches the
	// System, and the System reaches the handler, which is a method of
	// the workload that holds the clients: left alone, that cycle keeps
	// every round's System alive for the rest of the process.
	b.sys, b.clients, b.idle = nil, nil, nil
	return audit
}

// spacer creates an idle client on shard, has the workload prepare a
// request for its own handler on it, and makes one held Call. The
// client then holds a call descriptor it never uses again. Every
// workload places one right after Bind; syncW.setup says why.
func (b *base) spacer(shard int, prepare func(*rt.Client, *rt.Args) error) error {
	cl := b.sys.NewClientWith(rt.ClientOptions{Shard: shard})
	b.idle = append(b.idle, cl)
	var args rt.Args
	if err := prepare(cl, &args); err != nil {
		return err
	}
	return cl.Call(b.ep, &args)
}

type syncKind int

const (
	kindCall     syncKind = iota // held Call
	kindPooled                   // CallPooled
	kindDeadline                 // CallDeadline
	kindPayload                  // AllocPayload + fill + AttachPayload + Call
)

// zcBytes is payload_zc's segment size.
const zcBytes = 4096

// syncCfg shapes one closed-loop synchronous workload: callers
// goroutines, each with its own client, each issuing its next call when
// the previous one returns.
type syncCfg struct {
	callers  int  // caller goroutines; the System has one shard per caller
	shared   bool // every client bound to shard 0
	kind     syncKind
	health   bool          // bind the service with a health gate
	deadline time.Duration // kindDeadline
	seed     uint64
}

// callerSlot is where a caller publishes its progress, once per
// sampleEvery calls. One per caller, spaced so callers do not share a
// line.
type callerSlot struct {
	n, failed atomic.Int64
	firstErr  error // written by the caller before it exits, read after the join
	_         [12]uint64
}

var errResult = errors.New("handler did not increment word 0 exactly once")

type syncW struct {
	base
	cfg   syncCfg
	slots []callerSlot
	bad   atomic.Int64 // handler-side verification mismatches
	lat   hist
	wg    sync.WaitGroup
}

func newSync(cfg syncCfg) *syncW {
	if cfg.callers <= 0 {
		cfg.callers = runtime.NumCPU()
	}
	return &syncW{cfg: cfg, slots: make([]callerSlot, cfg.callers)}
}

func (w *syncW) setup() error {
	w.sys = rt.NewSystemOptions(rt.Options{Shards: w.cfg.callers})
	sc := rt.ServiceConfig{Name: "bench", Handler: w.handler}
	if w.cfg.health {
		sc.Health = &rt.HealthConfig{}
	}
	svc, err := w.sys.Bind(sc)
	if err != nil {
		return err
	}
	w.ep = svc.EP()
	// An idle client, created and called once, goes before the first
	// caller's client and after each one. rt's Service and its call
	// descriptor are both 112 bytes, and Go's allocator packs a size
	// class back to back: without the spacers the first client's
	// descriptor, written on every call, lands beside the Service object
	// every caller on every shard reads on every call, and consecutive
	// callers' descriptors land beside each other. Which cache lines
	// they then share depends on where in a span the run of objects
	// starts, so sync_held ran anywhere between 1x and 8x its speed from
	// one round to the next (README.md, "Findings"). The spacers make
	// the neighbours of every hot object idle, every round.
	if err := w.addClient(0, false); err != nil {
		return err
	}
	for g := 0; g < w.cfg.callers; g++ {
		shard := g
		if w.cfg.shared {
			shard = 0
		}
		if err := w.addClient(shard, true); err != nil {
			return err
		}
		if err := w.addClient(shard, false); err != nil {
			return err
		}
	}
	return nil
}

// addClient creates a client on shard and completes one operation on
// it; caller says whether a load goroutine will drive it or it only
// holds its place.
func (w *syncW) addClient(shard int, caller bool) error {
	cl := w.sys.NewClientWith(rt.ClientOptions{Shard: shard})
	if caller {
		w.clients = append(w.clients, cl)
	} else {
		w.idle = append(w.idle, cl)
	}
	var args rt.Args
	if err := w.op(cl, &args, 0); err != nil {
		return fmt.Errorf("first operation on a client of shard %d: %w", shard, err)
	}
	return nil
}

// op performs one untraced operation and verifies its result: the
// handler must have incremented word 0 exactly once.
func (w *syncW) op(cl *rt.Client, args *rt.Args, n uint64) error {
	args[0] = n
	var err error
	switch w.cfg.kind {
	case kindCall:
		err = cl.Call(w.ep, args)
	case kindPooled:
		err = cl.CallPooled(w.ep, args)
	case kindDeadline:
		err = cl.CallDeadline(w.ep, args, w.cfg.deadline)
	case kindPayload:
		ref, buf, aerr := cl.AllocPayload(zcBytes)
		if aerr != nil {
			return aerr
		}
		args[2] = fillPayload(buf, mix(w.cfg.seed^n))
		args.AttachPayload(ref)
		err = cl.Call(w.ep, args)
	}
	if err == nil && args[0] != n+1 {
		err = errResult
	}
	return err
}

// tracedOp is op with a span around each call into rt; the handler
// adds its own spans under the link carried in word 3.
func (w *syncW) tracedOp(g int, cl *rt.Client, args *rt.Args, n uint64) error {
	tr := w.ctl.tr
	args[0] = n
	var err error
	switch w.cfg.kind {
	case kindCall, kindPooled:
		id := tr.begin(g, spCall, -1, -1, 0)
		args[3] = link(id, id)
		if w.cfg.kind == kindCall {
			err = cl.Call(w.ep, args)
		} else {
			err = cl.CallPooled(w.ep, args)
		}
		tr.end(id)
	case kindDeadline:
		id := tr.begin(g, spCallDeadline, -1, -1, 0)
		args[3] = link(id, id)
		err = cl.CallDeadline(w.ep, args, w.cfg.deadline)
		tr.end(id)
	case kindPayload:
		root := tr.begin(g, spOp, -1, -1, 0)
		a := tr.begin(g, spAlloc, root, root, 0)
		ref, buf, aerr := cl.AllocPayload(zcBytes)
		tr.end(a)
		if aerr != nil {
			tr.end(root)
			return aerr
		}
		args[2] = fillPayload(buf, mix(w.cfg.seed^n))
		args.AttachPayload(ref)
		c := tr.begin(g, spCall, root, root, 0)
		args[3] = link(root, c)
		err = cl.Call(w.ep, args)
		tr.end(c)
		tr.end(root)
	}
	args[3] = 0
	if err == nil && args[0] != n+1 {
		err = errResult
	}
	return err
}

// handler is the null service: word 0 is incremented; a payload is
// verified in place. A mismatch is counted, never panicked: rt would
// report a panic as a service fault and hide it.
func (w *syncW) handler(ctx *rt.Ctx, args *rt.Args) {
	if args[3] != 0 {
		w.tracedHandler(ctx, args)
		return
	}
	if w.cfg.kind == kindPayload && !checkPayload(ctx.Payload(0), args[2]) {
		w.bad.Add(1)
	}
	args[0]++
}

func (w *syncW) tracedHandler(ctx *rt.Ctx, args *rt.Args) {
	tr := w.ctl.tr
	op, parent := unlink(args[3])
	// A plain call runs the handler on the caller's goroutine, so the
	// parent's lane is ours; CallDeadline runs it on the client's
	// executor goroutine, which gets the lane after the callers'.
	lane := tr.laneOf(parent)
	if w.cfg.kind == kindDeadline {
		lane = (lane + len(w.clients)) % traceLanes
	}
	h := tr.begin(lane, spHandler, parent, op, 0)
	if w.cfg.kind == kindPayload {
		v := tr.begin(lane, spView, h, op, 0)
		p := ctx.Payload(0)
		tr.end(v)
		if !checkPayload(p, args[2]) {
			w.bad.Add(1)
		}
	}
	args[0]++
	tr.end(h)
}

func (w *syncW) start(ctl *control) {
	w.ctl = ctl
	for g := range w.clients {
		w.wg.Add(1)
		go w.caller(g)
	}
}

// caller is one closed loop. Calls run back to back in blocks of
// sampleEvery with nothing between them but the result check; each
// block is timed as a whole, so the clock is read twice per block and
// never between two calls, and the latency series is the block time
// per call. In a traced run the last call of a block carries spans.
//
//ppc:coldpath -- benchmark harness; the measured path is the rt call inside op
func (w *syncW) caller(g int) {
	defer w.wg.Done()
	cl, slot, ctl := w.clients[g], &w.slots[g], w.ctl
	var args rt.Args
	n, failed := uint64(1), int64(0) // operation 0 was the set-up one
	fail := func(err error) {
		if failed++; slot.firstErr == nil {
			slot.firstErr = err
		}
	}
	for !ctl.stop.Load() {
		measuring := ctl.measuring.Load()
		t0 := now()
		tracing := ctl.tr != nil && measuring && traceBurst(t0)
		for i := 0; i < sampleEvery-1; i++ {
			if err := w.op(cl, &args, n); err != nil {
				fail(err)
			}
			n++
		}
		var err error
		if tracing {
			err = w.tracedOp(g%traceLanes, cl, &args, n)
			ctl.tr.blank(g % traceLanes)
		} else {
			err = w.op(cl, &args, n)
		}
		dt := now() - t0
		if err != nil {
			fail(err)
		}
		n++
		if measuring {
			w.lat.add(dt)
		}
		slot.n.Store(int64(n))
		slot.failed.Store(failed)
	}
}

func (w *syncW) completed() int64 {
	var n int64
	for i := range w.slots {
		n += w.slots[i].n.Load() - w.slots[i].failed.Load()
	}
	return n - w.bad.Load()
}

func (w *syncW) join() (counts, []string) {
	w.wg.Wait()
	var c counts
	for i := range w.slots {
		c.attempted += w.slots[i].n.Load()
		c.failed += w.slots[i].failed.Load()
		c.firstErr = errors.Join(c.firstErr, w.slots[i].firstErr)
	}
	if bad := w.bad.Load(); bad > 0 {
		c.failed += bad
		c.firstErr = errors.Join(c.firstErr, fmt.Errorf("%d payloads failed handler-side verification", bad))
	}
	if w.cfg.kind == kindPayload {
		c.bytes = c.attempted * zcBytes
	}
	return c, nil
}

func (w *syncW) latency() (*hist, float64) { return &w.lat, sampleEvery }
