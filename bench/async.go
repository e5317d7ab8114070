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

const (
	asyncWindow = 48       // outstanding requests; below the default ring of 64
	copyWindow  = 8        // the same for 64 KiB payloads
	batchSize   = 32       // requests per Flush
	copyBytes   = 64 << 10 // payload_copy's segment: rt's default offload threshold
	copySources = 16       // distinct caller-owned source buffers
	drainWait   = 5 * time.Second
	// stampEvery is the async sampling period: one request in stampEvery
	// carries a submit time (and spans, in a traced run). It is prime so
	// the samples walk through every position of a 32-request batch and
	// every ring slot; a period of 64 would stamp only the last request
	// of each batch.
	stampEvery = 61
	// windowStride: see producer. The ring holds 64, so up to
	// asyncWindow + windowStride - 1 = 55 requests outstanding still fit.
	windowStride = 8

	// Tracer lanes: the producer (or pacer) records in one, rt's workers,
	// which run the handlers, in the other.
	producerLane = 0
	workerLane   = 1
)

// neverBinds is a tenant budget no benchmark load can reach.
var neverBinds = rt.TenantConfig{Rate: 1e9, Burst: 1 << 40}

// asyncCfg shapes one closed-loop asynchronous workload: a single
// producer goroutine keeps window requests outstanding against one
// shard; rt's own workers are the other party.
type asyncCfg struct {
	lanes   int  // Options.Lanes
	tenant  bool // the client belongs to a tenant whose budget never binds
	batch   bool // submit through Batch.Add / Batch.Flush
	window  int
	payload int // bytes attached with AttachBytes; 0 for none
	seed    uint64

	src  [][]byte // caller-owned payload sources, never modified once filled
	want []uint64 // the check word of each source
}

type asyncW struct {
	base
	cfg   asyncCfg
	batch *rt.Batch

	done atomic.Int64 // handler-side completions; the producer's window reads it
	_    [7]uint64
	bad  atomic.Int64 // handler-side verification mismatches
	// nilView counts the mismatches where Ctx.Payload returned nil: rt
	// judged the descriptor stale, as opposed to handing over wrong bytes.
	nilView atomic.Int64
	_       [6]uint64
	sub     atomic.Int64 // accepted submissions, published by the producer

	c   counts // producer-owned until join
	lat hist
	wg  sync.WaitGroup
}

func newAsync(cfg asyncCfg) *asyncW { return &asyncW{cfg: cfg} }

// payloadSources generates the caller-owned payload buffers and the
// check word of each. They are the workload's input, made from the seed
// when a round is planned, not part of the System whose set-up is timed.
func payloadSources(size int, seed uint64) (src [][]byte, want []uint64) {
	for i := 0; i < copySources; i++ {
		buf := make([]byte, size)
		src = append(src, buf)
		want = append(want, fillPayload(buf, mix(seed+uint64(i))))
	}
	return src, want
}

func (w *asyncW) setup() error {
	w.sys = rt.NewSystemOptions(rt.Options{Shards: 1, Lanes: w.cfg.lanes})
	svc, err := w.sys.Bind(rt.ServiceConfig{Name: "bench", Handler: w.handler})
	if err != nil {
		return err
	}
	w.ep = svc.EP()
	co := rt.ClientOptions{Shard: 0}
	if w.cfg.tenant {
		if err := w.sys.ConfigureTenant(1, neverBinds); err != nil {
			return err
		}
		co.Tenant = 1
	}
	cl := w.sys.NewClientWith(co)
	w.clients = append(w.clients, cl)
	if w.cfg.batch {
		w.batch = cl.NewBatch(w.ep, batchSize)
	}

	// Request 0 is the spacer's synchronous call (base.spacer), request
	// 1 the client's first AsyncCall; both go through the handler and
	// are counted like every later request.
	w.c.attempted += firstRequest
	if err := w.spacer(0, func(sp *rt.Client, args *rt.Args) error { return w.fill(sp, args, 0, -1) }); err != nil {
		return err
	}
	var args rt.Args
	if err := w.fill(cl, &args, 1, -1); err != nil {
		return err
	}
	if err := cl.AsyncCall(w.ep, &args); err != nil {
		return err
	}
	if !waitUntil(drainWait, func() bool { return w.done.Load() == firstRequest }) {
		return errors.New("first operations never completed")
	}
	w.sub.Store(firstRequest)
	return nil
}

// firstRequest is the sequence number of the first request a producer
// submits: set-up has made requests 0 and 1.
const firstRequest = 2

// fill prepares request n for submission by cl: its sequence number, the word the handler
// checks it against, and the payload if the workload carries one. In a
// traced operation (root >= 0) AttachBytes gets a span of its own.
func (w *asyncW) fill(cl *rt.Client, args *rt.Args, n int64, root int32) error {
	args[0] = uint64(n)
	if w.cfg.payload == 0 {
		args[2] = mix(uint64(n) ^ w.cfg.seed)
		return nil
	}
	k := int(n % copySources)
	args[2] = w.cfg.want[k]
	w.c.bytes += int64(len(w.cfg.src[k]))
	a := int32(-1)
	if root >= 0 {
		a = w.ctl.tr.begin(producerLane, spAttachBytes, root, root, 0)
	}
	err := cl.AttachBytes(args, w.cfg.src[k])
	if root >= 0 {
		w.ctl.tr.end(a)
	}
	return err
}

func (w *asyncW) handler(ctx *rt.Ctx, args *rt.Args) {
	h, op := int32(-1), int32(-1)
	var tr *tracer
	if args[3] != 0 {
		tr = w.ctl.tr
		var parent int32
		op, parent = unlink(args[3])
		h = tr.begin(workerLane, spHandler, parent, op, 0)
	}
	if w.cfg.payload > 0 {
		var p []byte
		if h >= 0 {
			v := tr.begin(workerLane, spView, h, op, 0)
			p = ctx.Payload(0)
			tr.end(v)
		} else {
			p = ctx.Payload(0)
		}
		if !checkPayload(p, args[2]) {
			w.bad.Add(1)
			if p == nil {
				w.nilView.Add(1)
			}
		}
	} else if args[2] != mix(args[0]^w.cfg.seed) {
		w.bad.Add(1)
	}
	if h >= 0 {
		tr.end(h)
	}
	if args[1] != 0 && w.ctl.measuring.Load() {
		w.lat.add(now() - int64(args[1]))
	}
	w.done.Add(1)
}

func (w *asyncW) start(ctl *control) {
	w.ctl = ctl
	w.wg.Add(1)
	if w.cfg.batch {
		go w.batchProducer()
	} else {
		go w.producer()
	}
}

// awaitWindow yields until fewer than limit requests are outstanding.
// Yielding matters on a small machine: a producer that spins here keeps
// the woken worker waiting for the producer's own processor.
func (w *asyncW) awaitWindow(sub int64, limit int) bool {
	for sub-w.done.Load() >= int64(limit) {
		if w.ctl.stop.Load() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// sampleStats reads the queue depth and worker count off System.Stats;
// traced runs only, on one stamped request in sixteen.
func (w *asyncW) sampleStats() {
	st := w.sys.Stats()
	d, ok1 := statSum(st, "AsyncQueueDepth", -1)
	n, ok2 := statSum(st, "AsyncWorkers", -1)
	if ok1 && ok2 {
		w.c.depthSamples++
		w.c.depthSum += d
		w.c.workerSum += n
	}
}

//ppc:coldpath -- benchmark harness; the measured path is rt.Client.AsyncCall
func (w *asyncW) producer() {
	defer w.wg.Done()
	cl, ctl, tr := w.clients[0], w.ctl, w.ctl.tr
	var args rt.Args
	sub := int64(firstRequest)
	stride := int64(1)
	if w.cfg.window >= 4*windowStride {
		stride = windowStride // not for payload_copy's window of 8, whose requests cost microseconds anyway
	}
	for !ctl.stop.Load() {
		// The window is checked once per stride submissions: the
		// completion counter it reads is written by the worker on every
		// request, so reading it on every submission makes the producer
		// about as slow as the worker, and rt then flips between a
		// producer-bound and a worker-bound regime from round to round.
		if sub%stride == 0 && !w.awaitWindow(sub, w.cfg.window) {
			break
		}
		args[1], args[3] = 0, 0
		root := int32(-1)
		if sub%stampEvery == 0 {
			args[1] = uint64(now())
			if tr != nil && ctl.measuring.Load() {
				if sub%(16*stampEvery) == 0 {
					w.sampleStats()
				}
				root = tr.begin(producerLane, spOp, -1, -1, 0)
			}
		}
		w.c.attempted++
		err := w.fill(cl, &args, sub, root)
		if err == nil && root >= 0 {
			a := tr.begin(producerLane, spAsyncCall, root, root, 0)
			args[3] = link(root, a)
			err = cl.AsyncCall(w.ep, &args)
			tr.end(a)
			tr.end(root)
			tr.blank(producerLane)
		} else if err == nil {
			err = cl.AsyncCall(w.ep, &args)
		}
		if err != nil {
			w.fail(1, err)
			continue
		}
		sub++
		w.sub.Store(sub)
	}
}

func (w *asyncW) fail(n int, err error) {
	if w.c.firstErr == nil {
		w.c.firstErr = err
	}
	w.c.failed += int64(n)
}

//ppc:coldpath -- benchmark harness; the measured path is rt.Batch.Add/Flush
func (w *asyncW) batchProducer() {
	defer w.wg.Done()
	ctl, tr, b := w.ctl, w.ctl.tr, w.batch
	var stage [batchSize]rt.Args
	sub := int64(firstRequest)
	for !ctl.stop.Load() {
		if !w.awaitWindow(sub, w.cfg.window-batchSize+1) {
			break
		}
		tracing := tr != nil && ctl.measuring.Load()
		for i := range stage {
			n := sub + int64(i)
			args := &stage[i]
			args[1], args[3] = 0, 0
			_ = w.fill(nil, args, n, -1) // no payload on the batch workload: cannot fail
			if n%stampEvery != 0 {
				b.Add(args)
				continue
			}
			args[1] = uint64(now())
			if !tracing {
				b.Add(args)
				continue
			}
			if n%(16*stampEvery) == 0 {
				w.sampleStats()
			}
			a := tr.begin(producerLane, spAdd, -1, -1, 0)
			args[3] = link(a, a)
			b.Add(args)
			tr.end(a)
			tr.blank(producerLane)
		}
		w.c.attempted += batchSize
		var accepted int
		var err error
		if tracing {
			f := tr.begin(producerLane, spFlush, -1, -1, 0)
			accepted, err = b.Flush()
			tr.end(f)
			tr.setAux(f, accepted)
		} else {
			accepted, err = b.Flush()
		}
		w.c.flushes++
		// A short flush dropped its tail: stage it again. The window
		// keeps the ring from filling, so this is not flow control; each
		// one is counted and three in a row give the tail up as failed.
		for try := 0; accepted < batchSize && try < 3; try++ {
			w.c.short++
			if err != nil && !errors.Is(err, rt.ErrBackpressure) {
				break
			}
			for i := accepted; i < batchSize; i++ {
				b.Add(&stage[i])
			}
			var more int
			more, err = b.Flush()
			w.c.flushes++
			accepted += more
		}
		if accepted < batchSize {
			w.fail(batchSize-accepted, err)
		}
		sub += int64(accepted)
		w.sub.Store(sub)
	}
}

func (w *asyncW) completed() int64 { return w.done.Load() - w.bad.Load() }

func (w *asyncW) join() (counts, []string) {
	w.wg.Wait()
	var audit []string
	sub := w.sub.Load()
	if !waitUntil(drainWait, func() bool { return w.done.Load() >= sub }) || w.done.Load() != sub {
		audit = append(audit, fmt.Sprintf("handler completions %d != accepted submissions %d", w.done.Load(), sub))
	}
	c := w.c
	if bad := w.bad.Load(); bad > 0 {
		c.failed += bad
		c.firstErr = errors.Join(c.firstErr, fmt.Errorf("%d requests failed handler-side verification (%d of them: Ctx.Payload returned nil)", bad, w.nilView.Load()))
	}
	return c, audit
}

// latency returns the submit -> handler-done times of the stamped
// requests, for the tail report only: with a fixed window of W requests
// outstanding that time is W over the throughput whenever the worker is
// the slower side and a few requests' worth whenever the producer is
// (rt settles into either, see README.md), so it measures which side of
// the harness's window the round sat on. lat_mid_ns on these workloads
// is the time per completed operation instead.
func (w *asyncW) latency() (*hist, float64) { return &w.lat, 0 }

func (w *asyncW) teardown() []string {
	w.batch = nil // it holds the client; see base.teardown
	return w.base.teardown()
}
