package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hurricane/rt"
)

const (
	// openRate is the offered load: about 1.3 times what one worker can
	// serve at serviceNs per request, so shedding must engage.
	openRate    = 260000.0
	serviceNs   = 5000 // handler busy-wait on the monotonic clock
	laneRingCap = 256
)

var laneOf = [numLanes]rt.Lane{rt.LaneCritical, rt.LaneNormal, rt.LaneBestEffort}

// pacerSlot is one lane's offered/refused pair, published by the pacer
// as it goes so the driver can read it at the window's edges.
type pacerSlot struct {
	offered, refused atomic.Int64
	_                [6]uint64
}

// lanesW is the open-loop workload: one pacer goroutine submits on a
// Poisson schedule whether or not the System keeps up; three clients,
// one per criticality class, each with a tenant whose budget never
// binds. Latency runs from the instant a request was due.
type lanesW struct {
	base
	seed uint64

	pace [numLanes]pacerSlot
	done [numLanes]struct {
		n atomic.Int64
		_ [7]uint64
	}
	bad   atomic.Int64 // handler-side mismatches
	other atomic.Int64 // errors that are not a refusal

	c    counts
	lat  [numLanes]hist // due -> handler done
	late hist           // due -> sent: how late the generator ran
	wg   sync.WaitGroup
}

func newLanes(seed uint64) *lanesW { return &lanesW{seed: seed} }

func (w *lanesW) setup() error {
	w.sys = rt.NewSystemOptions(rt.Options{Shards: 1, Lanes: numLanes, AsyncQueueCap: laneRingCap})
	svc, err := w.sys.Bind(rt.ServiceConfig{Name: "bench", Handler: w.handler})
	if err != nil {
		return err
	}
	w.ep = svc.EP()
	// The spacer's call (base.spacer) is counted as a critical request.
	w.pace[laneCritical].offered.Add(1)
	if err := w.spacer(0, func(_ *rt.Client, args *rt.Args) error {
		w.fill(args, numLanes, now(), laneCritical)
		return nil
	}); err != nil {
		return err
	}
	for l := 0; l < numLanes; l++ {
		id := rt.TenantID(l + 1)
		if err := w.sys.ConfigureTenant(id, neverBinds); err != nil {
			return err
		}
		cl := w.sys.NewClientWith(rt.ClientOptions{Shard: 0, Lane: laneOf[l], Tenant: id})
		w.clients = append(w.clients, cl)
		var args rt.Args
		w.fill(&args, uint64(l), now(), l)
		w.pace[l].offered.Add(1)
		if err := cl.AsyncCall(w.ep, &args); err != nil {
			return err
		}
	}
	if !waitUntil(drainWait, func() bool { return w.completed() == numLanes+1 }) {
		return errors.New("first operations never completed")
	}
	return nil
}

func (w *lanesW) fill(args *rt.Args, seq uint64, due int64, lane int) {
	args[0], args[1] = seq, uint64(due)
	args[2] = mix(seq^w.seed)<<2 | uint64(lane)
	args[3] = 0
}

// handler holds the worker for serviceNs, then records due -> done in
// the request's lane.
func (w *lanesW) handler(ctx *rt.Ctx, args *rt.Args) {
	lane := int(args[2] & 3)
	h := int32(-1)
	if args[3] != 0 {
		op, parent := unlink(args[3])
		h = w.ctl.tr.begin(workerLane, spHandler, parent, op, uint8(lane))
	}
	t := now()
	for end := t + serviceNs; t < end; {
		t = now()
	}
	if h >= 0 {
		w.ctl.tr.end(h)
	}
	if lane >= numLanes || args[2]>>2 != mix(args[0]^w.seed)<<2>>2 {
		w.bad.Add(1)
		lane = laneBestEffort
	}
	if ctl := w.ctl; ctl != nil && ctl.measuring.Load() {
		w.lat[lane].add(t - int64(args[1]))
	}
	w.done[lane].n.Add(1)
}

func (w *lanesW) start(ctl *control) {
	w.ctl = ctl
	w.wg.Add(1)
	go w.pacer()
}

// pacer is the load generator. It spins on the clock and never yields:
// at saturation rt's workers do not park, and a yielding pacer measured
// less steady. A request it cannot send on time is sent as soon as it
// can be, and its latency still counts from when it was due.
//
//ppc:coldpath -- benchmark harness; the measured path is rt.Client.AsyncCall through the lanes
func (w *lanesW) pacer() {
	defer w.wg.Done()
	ctl, tr := w.ctl, w.ctl.tr
	sched := newSchedule(w.seed, openRate)
	var args rt.Args
	start := now()
	for seq := uint64(numLanes + 1); ; seq++ {
		off, lane := sched.next()
		due := start + off
		t := now()
		for t < due && !ctl.stop.Load() {
			t = now()
		}
		if ctl.stop.Load() {
			return
		}
		measuring := ctl.measuring.Load()
		if measuring {
			w.late.add(t - due)
		}
		w.fill(&args, seq, due, lane)
		a := int32(-1)
		if tr != nil && measuring && seq%sampleEvery == 0 {
			if seq%1024 == 0 {
				w.sampleStats()
			}
			a = tr.begin(producerLane, spAsyncCall, -1, -1, uint8(lane))
			args[3] = link(a, a)
		}
		err := w.clients[lane].AsyncCall(w.ep, &args)
		if a >= 0 {
			tr.end(a)
			tr.blank(producerLane)
		}
		w.pace[lane].offered.Add(1)
		switch {
		case err == nil:
		case errors.Is(err, rt.ErrShed), errors.Is(err, rt.ErrBackpressure):
			w.pace[lane].refused.Add(1)
		default:
			w.other.Add(1)
			if w.c.firstErr == nil {
				w.c.firstErr = err
			}
		}
	}
}

func (w *lanesW) sampleStats() {
	st := w.sys.Stats()
	n, ok := statSum(st, "AsyncWorkers", -1)
	if !ok {
		return
	}
	w.c.depthSamples++
	w.c.workerSum += n
	for l := 0; l < numLanes; l++ {
		d, _ := statSum(st, "LaneDepth", l)
		w.c.laneDepthSum[l] += d
		w.c.depthSum += d
	}
}

func (w *lanesW) completed() int64 {
	var n int64
	for l := range w.done {
		n += w.done[l].n.Load()
	}
	return n - w.bad.Load()
}

// join drains and applies the lane contract: everything accepted was
// serviced, the critical class was never refused, and the shed share is
// ordered best-effort >= normal >= critical.
func (w *lanesW) join() (counts, []string) {
	w.wg.Wait()
	c := w.c
	var accepted int64
	for l := 0; l < numLanes; l++ {
		c.offered[l], c.refused[l] = w.pace[l].offered.Load(), w.pace[l].refused.Load()
		c.attempted += c.offered[l]
		accepted += c.offered[l] - c.refused[l]
	}
	accepted -= w.other.Load()
	var audit []string
	served := func() int64 { return w.completed() + w.bad.Load() }
	if !waitUntil(drainWait, func() bool { return served() >= accepted }) || served() != accepted {
		audit = append(audit, fmt.Sprintf("handler completions %d != accepted submissions %d", served(), accepted))
	}
	share := func(l int) float64 { return float64(c.refused[l]) / float64(max(c.offered[l], 1)) }
	if share(laneBestEffort) < share(laneNormal) || share(laneNormal) < share(laneCritical) {
		audit = append(audit, fmt.Sprintf("shed share not ordered: critical %.4f normal %.4f best-effort %.4f",
			share(laneCritical), share(laneNormal), share(laneBestEffort)))
	}
	c.failed = c.refused[laneCritical] + w.other.Load() + w.bad.Load()
	if c.failed > 0 {
		c.firstErr = errors.Join(c.firstErr, fmt.Errorf("critical refusals %d, handler-side mismatches %d",
			c.refused[laneCritical], w.bad.Load()))
	}
	c.refusedOK = c.refused[laneNormal] + c.refused[laneBestEffort]
	return c, audit
}

// latency is the critical lane's: the class the lanes exist to protect.
func (w *lanesW) latency() (*hist, float64) { return &w.lat[laneCritical], 1 }

func (w *lanesW) lateness() *hist { return &w.late }
