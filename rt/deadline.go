package rt

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Per-call deadlines and the orphaning protocol.
//
// A plain Call runs the handler on the caller's own goroutine — the
// whole point of the PPC design — which means the caller cannot
// abandon it: Go offers no way to preempt your own stack. CallDeadline
// therefore routes execution through a per-client *executor*
// goroutine: a single, lazily-created, reused goroutine that runs
// handlers on a call descriptor of its own (the paper's worker-held CD,
// popped at arming and pushed back when the goroutine exits, like an
// async worker's) while the caller waits on a reusable ticket. The warm
// path allocates nothing — the ticket, its two channels and the executor
// all persist on the Client. The cost: a client that makes both plain
// and deadline calls keeps two descriptors (one 4 KiB scratch more), and
// the two paths do not share a scratch page.
//
// The handoff is hand-off scheduling: both parties park first. The
// caller writes the request, sends one token on the executor's wake
// channel and blocks on the ticket's done channel; the executor blocks
// on wake, runs the handler, and sends the done token. Go's scheduler
// puts a readied goroutine in the waker's runnext slot, so the executor
// runs on the caller's processor the moment the caller blocks, and the
// caller resumes there the same way — a PPC is a hand-off to a worker
// on the caller's own processor, and another P takes the wakee only if
// the waker keeps running. There is no spin phase and no yield phase, on
// any P count: on the defining host a spin ping-pong between two
// processors costs as much as a channel ping-pong on one and burns a
// second core doing it (EXPERIMENTS.md E19).
//
// Timing uses no per-call timer. Arming a deadline is one store of an
// absolute expiry into the ticket's deadline word and disarming is one
// store of zero; every executor of a shard is on one list
// (shard.dlExecs, under the cold dlMu), and the shard's tick
// (watchdog.go) walks the whole list, performing the
// dlWaiting→dlOrphaned CAS on behalf of every caller whose word has
// come due, followed by the same done token the executor would send.
// The list holds one entry per executor, not per call, and the walk is
// one load — one cache line — per entry: under 1 % of a processor for
// 1 000 registered executors, 2–9 % for 10 000 (EXPERIMENTS.md E23).
//
// Timing contract: arming rounds the expiry up by one tick from the
// shard's coarse clock, and every tick refreshes that clock before it
// walks the list, so a deadline is settled never before d has elapsed
// and at most ~2 ticks after, for any d. The tick is deadlineTick, or
// Options.WatchdogInterval when that is finer.
//
// The ticket state word packs a per-executor generation with a phase
// (gen<<2 | waiting/done/orphaned). The generation is what makes the
// tick's asynchronous CAS safe: a deadline read from call N that is
// acted on while call N+1 is in flight fails its CAS (different gen),
// and a resolved call leaves the deadline word zero before the next
// call opens its waiting phase while the tick re-validates the deadline
// *after* reading the state, so a stale expiry can never orphan a
// fresh call.
//
// The waiting phase is also the call's pin against the scavenger
// (owner.go). The caller opens it before the entry and the admission and
// then loads its record's life state — the store-then-load Dekker pair
// lease slots and Hold use: either the load sees the client dead and the
// call backs out, or the scavenger sees the ticket and defers the dead
// client until the call is done or (orphaned, perhaps ahead of the
// handoff) its caller has let go of the executor: it never retires one a
// request is being handed to. Every pre-handoff exit closes the phase.
//
// When the deadline fires first the call is *orphaned*: the handler is
// still running, on the executor's descriptor, which nobody else has a
// claim on — the client's own hold is not involved in a deadline call.
//
//  1. The watchdog tick (expiry) or the caller (ctx cancellation) raises
//     ShardStats.QuarantinedCDs and CASes the ticket waiting→orphaned,
//     lowering the gauge again on a lost CAS. The *caller*, on observing
//     the orphaned phase, takes the executor off the shard's list,
//     forgets it and returns ErrDeadline; its next deadline call arms a
//     fresh one. A caller-side CAS loss means the executor finished
//     first: the caller takes the result normally — no orphan.
//  2. The executor, after the handler returns, CASes waiting→done. If
//     IT loses, the call was orphaned while it ran: it lowers the gauge
//     (the increment preceded the CAS it lost to, so the gauge never
//     reads negative) and exits.
//  3. An exiting executor, orphaned or retired, pushes its descriptor
//     back into the pool — unless the System was closed since it was
//     armed; then the descriptor is dropped, the epoch rule of Release.
//
// The in-flight accounting (admitted / completed) brackets the
// *handler*, not the caller's wait: an orphaned handler still counts
// in flight until it returns, so a soft Kill drains orphans too, and
// the close-epoch check keeps a late executor exit from repopulating a
// drained pool.
//
// Health evidence: only a true expiry (cause == nil) is recorded as
// timeout evidence — a caller that cancels via ctx is not a sick
// service. A cancelled call that carried the half-open probe still
// settles the gate (back to degraded) so the probe lease is never
// leaked.
//
// Deadline semantics for asynchronous submissions are simpler — a
// queued request has no goroutine to orphan. AsyncCallNotifyDeadline
// stamps the request with an absolute expiry; a worker that dequeues it
// past the expiry settles it (accounting, health evidence, notification)
// without running the handler. The dequeue check shares the shard's
// coarse clock, refreshed once per drained batch. See
// shard.expireAsync.

// deadlineTick is how often a shard with a deadline executor registered
// walks its list (EXPERIMENTS.md E14: finer buys nothing, coarser only
// adds lateness). A finer Options.WatchdogInterval takes its place.
const deadlineTick = time.Millisecond

// Ticket state word layout: gen<<dlGenShift | phase.
const (
	dlPhaseWaiting  uint64 = 1
	dlPhaseDone     uint64 = 2
	dlPhaseOrphaned uint64 = 3
	dlPhaseMask     uint64 = 3
	dlGenShift             = 2
)

// dlTicket is the rendezvous between a deadline caller and its
// executor. Reused across calls; the generation-tagged state CAS is the
// single synchronization point that decides completion vs orphaning.
type dlTicket struct {
	// state is gen<<2|phase; see the file comment for the protocol.
	// The gen|Done CAS is the release edge for the handler's results:
	// the executor writes t.args (via dispatch) and t.err, then CASes,
	// and the caller reads both only after loading a Done state. The
	// orphan-side CAS (orphan), the arming store and unpin carry no
	// payload and are //ppc:nopublish at the site.
	//
	//ppc:atomic
	//ppc:publishes(args, err)
	state atomic.Uint64
	// deadline is the armed absolute expiry (unix nanos); 0 = disarmed.
	// The caller stores it, the shard's tick loads it.
	//
	//ppc:atomic
	deadline atomic.Int64
	// done is the caller's park: buffered(1), one token from the
	// executor or the tick, whichever CASes the state out of waiting.
	// The token carries nothing — it means "re-check state", and state
	// is what publishes the results.
	done chan struct{}
	args Args  // the handler's working copy of the caller's args
	err  error // written by the executor before the dlDone CAS
}

// sendToken puts a token on a buffered(1) park channel unless one is
// already pending: coalescing and never blocking, so the tick's walk and
// a repeated retire can both use it. A token carries nothing; its
// receiver re-checks the word or flag it waits on.
//
//ppc:coldpath -- a channel send: the scheduler is involved by design
func sendToken(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// unpin closes a waiting phase no request was handed off under.
//
//ppc:coldpath -- the call is failing before dispatch
func (t *dlTicket) unpin(gen uint64) {
	//ppc:nopublish -- the executor never saw this generation: there are no results
	t.state.Store(gen<<dlGenShift | dlPhaseDone)
}

// orphan moves the ticket from the waiting state s to orphaned, for the
// tick or the cancelling caller. The quarantine gauge goes up BEFORE the
// CAS and back down if it is lost: the executor lowers it after losing
// its own CAS to this one, so the decrement always follows the increment.
//
//ppc:coldpath -- the call is being abandoned
func (e *dlExec) orphan(s uint64) bool {
	e.cd.shard.quarantinedCDs.Add(1)
	//ppc:nopublish -- orphan transition: carries no payload, the caller discards results
	if e.ticket.state.CompareAndSwap(s, s&^dlPhaseMask|dlPhaseOrphaned) {
		return true
	}
	e.cd.shard.quarantinedCDs.Add(-1)
	return false
}

// dlReq is one unit of work handed to the executor: the call's record
// and its generation. It lives inline in dlExec: the caller writes it,
// then publishes it with the wake token; the executor copies it out after
// receiving that. Strictly SPSC — the channel orders every handoff.
type dlReq struct {
	callRec
	gen uint64 // the arming generation (tags the state CASes)
}

// dlExec is the per-client deadline executor: one goroutine, one
// descriptor, one inline request slot, one reusable ticket. The handoff
// is park-first in both directions: the executor blocks on wake, the
// caller on ticket.done, and each send readies the other side on the
// sender's own processor.
type dlExec struct {
	sys  *System
	prog uint32 // the client's program ID
	idx  int    // position in its shard's dlExecs, -1 once off the list; guarded by dlMu
	// cd is the executor's own descriptor, out of the pool from arming
	// until loop exits; epoch is the close epoch it was popped under. The
	// caller touches cd (its stripe cache) only while the executor is parked.
	cd    *callDesc
	epoch uint64
	// wake is the executor's park: buffered(1). The caller's send and
	// the executor's receive are req's publish edge (one token per
	// request, so the send never finds the buffer full); retire sends a
	// non-blocking token that carries nothing.
	wake chan struct{}
	// exit is retire's flag, checked on every wake token.
	//
	//ppc:atomic
	exit   atomic.Bool
	req    dlReq  // caller-written, published by the wake send
	gen    uint64 // caller-private arm counter
	ticket dlTicket
}

// armDeadlineExec lazily creates the client's executor (first
// CallDeadline, or the first after an orphaning) on a descriptor popped
// for it and puts it on the shard's list, then makes sure the tick loop
// is running at the deadline tick to drive expiries.
//
//ppc:coldpath -- executor construction, once per client (plus once per orphaning)
func (c *Client) armDeadlineExec() *dlExec {
	sh := c.shard
	e := &dlExec{sys: c.sys, prog: c.program, epoch: c.sys.closeEpoch.Load()}
	e.cd = sh.popCD(defaultScratchBytes)
	e.wake = make(chan struct{}, 1)
	e.ticket.done = make(chan struct{}, 1)
	sh.dlMu.Lock()
	e.idx = len(sh.dlExecs)
	sh.dlExecs = append(sh.dlExecs, e)
	sh.dlMu.Unlock()
	sh.startTick(c.sys)
	c.dl = e
	// Its Release is not a second Release of an earlier hold.
	c.released = false
	// Mirror the executor on the ownership record so the scavenger can
	// retire it if the client dies idle. A scavenger already past the
	// record never will: the caller's life check behind its pin sees that
	// death, and the dead owner retires the executor itself (dropDeadHold).
	c.rec.dl.Store(e)
	go e.loop()
	return e
}

// unlist swap-deletes the executor from its shard's list: the tick will
// not look at its deadline word again. Idempotent — Release and the
// scavenger may both retire one executor.
//
//ppc:coldpath -- executor retirement, once per orphaning or Release
func (e *dlExec) unlist() {
	sh := e.cd.shard
	sh.dlMu.Lock()
	defer sh.dlMu.Unlock()
	if i := e.idx; i >= 0 {
		last := len(sh.dlExecs) - 1
		sh.dlExecs[i] = sh.dlExecs[last]
		sh.dlExecs[i].idx = i
		sh.dlExecs[last] = nil
		sh.dlExecs = sh.dlExecs[:last]
		e.idx = -1
	}
}

// deadlineExecs is how many executors the shard's tick has to walk.
func (sh *shard) deadlineExecs() int {
	sh.dlMu.Lock()
	defer sh.dlMu.Unlock()
	return len(sh.dlExecs)
}

// expireDeadlines is the tick's walk of the shard's executors: every
// armed deadline that has come due orphans its call on the parked
// caller's behalf and is then cleared — by CAS, not store, so a
// concurrent re-arm's fresh expiry survives. Re-reading the deadline
// AFTER the state is what defeats the stale-deadline ABA: if the state
// word belongs to a newer call, the deadline word was zeroed (the older
// call's disarm) before that state was stored and has held only the newer
// call's own expiry since, so a re-read that still sees d is seeing a
// deadline of the call it orphans.
//
//ppc:coldpath -- periodic scan on the tick goroutine, off every call path
func (sh *shard) expireDeadlines(now int64) {
	sh.dlMu.Lock()
	defer sh.dlMu.Unlock()
	for _, e := range sh.dlExecs {
		t := &e.ticket
		d := t.deadline.Load()
		if d == 0 || d > now {
			continue
		}
		s := t.state.Load()
		if s&dlPhaseMask == dlPhaseWaiting && t.deadline.Load() == d && e.orphan(s) {
			sendToken(t.done)
		}
		t.deadline.CompareAndSwap(d, 0)
	}
}

// loop runs handlers on behalf of deadline callers until retired
// (Client.Release, the scavenger, or a caller that found itself dead) or
// orphaned, and returns the descriptor on the way out as an async worker
// does — unless the System was closed since the executor was armed: a
// drained shard's pool is never repopulated from the outside.
func (e *dlExec) loop() {
	defer func() {
		if e.sys.closeEpoch.Load() == e.epoch {
			e.cd.shard.pushCD(e.cd)
		}
	}()
	t := &e.ticket
	for {
		<-e.wake
		if e.exit.Load() {
			return
		}
		req := e.req // copy out; the caller may rewrite req after this call resolves
		err := e.sys.dispatch(e.cd, req.svc, req.st, req.h, &t.args, e.prog, false)
		// Handler done: complete exactly as callHeld would — for an orphaned
		// call too, which is what lets a soft Kill drain it.
		req.svc.complete(req.st)
		t.err = err
		want := req.gen<<dlGenShift | dlPhaseWaiting
		if t.state.CompareAndSwap(want, req.gen<<dlGenShift|dlPhaseDone) {
			// The settlement only for a call the caller actually saw
			// complete; an orphaned call's is the caller's (orphaned).
			if req.svc.health != nil {
				req.settle(err)
			}
			sendToken(t.done)
			continue
		}
		// Orphaned while running: the caller has forgotten this executor
		// and replaces it on demand. The quarantine ends here, with the one
		// goroutine that observed handler return.
		e.cd.shard.quarantinedCDs.Add(-1)
		return
	}
}

// dropExec retires the client's deadline executor, if it has one, and
// forgets it; the next deadline call arms another.
//
//ppc:coldpath -- executor retirement, off every call path
func (c *Client) dropExec() {
	if e := c.dl; e != nil {
		e.retire()
		c.dl = nil
		c.rec.dl.Store(nil)
	}
}

// retire asks an executor no request is being handed to — Client.Release
// (a Client is single-goroutine by contract, so no call is in flight),
// the scavenger past the ticket's pin — to exit at its next wake, and
// takes it off the shard's list. Idempotent: Release and the scavenger
// may both retire one executor; the second token is dropped or left in
// the buffer of a goroutine that already exited.
//
//ppc:coldpath -- executor retirement, off every call path
func (e *dlExec) retire() {
	e.exit.Store(true)
	sendToken(e.wake)
	e.unlist()
}

// CallDeadline is Call with an upper bound on how long the caller
// waits. The handler itself is never interrupted — Go cannot preempt a
// running function safely — so an expired call is *orphaned*: the
// caller returns ErrDeadline while the handler runs to completion on
// the executor goroutine and the executor's descriptor.
// Results of an orphaned call are discarded; args are copied in, so
// the orphan never scribbles on the caller's memory after return.
//
// Expiry is detected on the shard's tick: a call is settled as expired
// at most ~2 ticks after d elapses and never before, for any d (the
// tick is 1 ms, or Options.WatchdogInterval when that is finer).
//
// A d <= 0 means no deadline: identical to Call (including running the
// handler on the caller's goroutine).
//
// The warm path — executor armed, deadline met — performs zero heap
// allocations and arms no timer: the ticket and the executor are
// reused, and arming is one store into the ticket's deadline word.
//
//ppc:rmwbudget(4) -- arm (ticket, deadline word: 2), admission, disarm
func (c *Client) CallDeadline(ep EntryPointID, args *Args, d time.Duration) error {
	if d <= 0 {
		return c.Call(ep, args)
	}
	return c.callDeadline(ep, args, d, nil, nil)
}

// CallContext is Call honoring ctx's deadline and cancellation. A ctx
// with neither is identical to Call. Expiry and cancellation both
// orphan the in-flight handler exactly as CallDeadline does; the
// returned error wraps ErrDeadline and ctx.Err(). An already-expired
// or already-cancelled ctx fails before admission: the handler never
// runs and no descriptor or executor is touched.
func (c *Client) CallContext(ctx context.Context, ep EntryPointID, args *Args) error {
	if err := ctx.Err(); err != nil {
		// Dead on arrival (cancelled, or deadline already past): reject
		// before admission, with no side effects beyond settling any
		// attached payload leases — the attach transferred them to this
		// call, failed or not.
		return c.rejectEarly(args, fmt.Errorf("%w: %w", ErrDeadline, err))
	}
	var d time.Duration
	if t, ok := ctx.Deadline(); ok {
		d = time.Until(t)
		if d <= 0 {
			return c.rejectEarly(args, fmt.Errorf("%w: %w", ErrDeadline, context.DeadlineExceeded))
		}
	}
	cancel := ctx.Done()
	if d == 0 && cancel == nil {
		return c.Call(ep, args)
	}
	return c.callDeadline(ep, args, d, cancel, ctx)
}

// rejectEarly fails a call that never reaches admission with err. Its
// attached leases are consumed like any submission's: claimed out of the
// ownership record, then released.
func (c *Client) rejectEarly(args *Args, err error) error {
	if cerr := c.consumeArgs(args); cerr != nil {
		return cerr
	}
	c.shard.releaseArgsPayloads(args)
	return err
}

// callDeadline runs one bounded call through the executor — the
// synchronous core split at the handoff. The ticket's waiting phase opens
// first and the life check follows it (the pin; see the file comment),
// then the entry and the admission every synchronous call makes, on the
// stripe of the executor's descriptor; the executor dispatches, completes
// and, if the caller is still waiting, settles. The client's own hold and
// its ownership word are not involved. d == 0: no expiry (cancellation
// only); cancel may be nil.
func (c *Client) callDeadline(ep EntryPointID, args *Args, d time.Duration, cancel <-chan struct{}, ctx context.Context) error {
	if err := c.preflight(one(args)); err != nil {
		return err
	}
	if c.rec.epochs != 0 {
		c.beatTick()
	}
	exec := c.dl
	if exec == nil {
		exec = c.armDeadlineExec()
	}
	t := &exec.ticket
	exec.gen++
	gen := exec.gen
	//ppc:nopublish -- arming store: opens the waiting phase, the Done CAS publishes the results
	t.state.Store(gen<<dlGenShift | dlPhaseWaiting)
	if c.rec.state.Load() != crLive {
		t.unpin(gen) // nothing was handed off; the dead owner's exit retires the executor
		return c.ownerLost(one(args))
	}
	sh := c.shard
	cr, err := sh.enter(ep, one(args), c.rec)
	if err == nil {
		if cr.st = exec.cd.stripeOf(cr.svc); !cr.begin() {
			err = cr.fail(sh, one(args), ErrKilled)
		}
	}
	if err != nil {
		t.unpin(gen)
		return err
	}
	t.args = *args
	// The ticket's copy owns the attached leases from here: the
	// executor's dispatch settles them after the handler returns — for
	// an orphaned call too, which is exactly the lease-outlives-
	// quarantine invariant (docs/INVARIANTS.md). Strip the caller-side
	// count so the orphan path cannot release a second time.
	transferPayloads(args)
	if d > 0 {
		// Arm BEFORE publishing the request so the bound covers the whole
		// handoff, and after the state store: the tick clears a due word
		// whether or not it found a waiting call to orphan. The expiry
		// rounds up by one tick from the coarse clock: staleness ≤ one
		// tick, so the tick never fires before d has elapsed, and at most
		// ~2 ticks after.
		t.deadline.Store(sh.clock.read() + int64(d) + int64(sh.dlTick))
	}
	exec.req = dlReq{callRec: cr, gen: gen}
	// Hand off: the send readies the executor on this processor, and
	// blocking in wait is what lets it run there.
	exec.wake <- struct{}{}
	s, cancelled := exec.wait(gen, cancel)
	if s&dlPhaseMask != dlPhaseDone {
		// Orphaned: by the tick, a true expiry, or by the cancellation.
		var cause error
		if cancelled {
			cause = ctx.Err()
		}
		return c.orphaned(cr, exec, cause)
	}
	if d > 0 {
		t.deadline.Store(0) // disarm
	}
	*args = t.args // done, and settled by the executor before its token
	return t.err
}

// wait parks the caller on the ticket's done token until the call's
// state word leaves gen|waiting, re-checking the word on every token, and
// returns the state the call resolved to. If the cancel channel fires
// first it tries to orphan the call and says so; a call the executor or
// the tick resolved before that keeps its resolution (expiry and
// cancellation racing, either is correct and the caller keeps the
// cancellation cause).
func (e *dlExec) wait(gen uint64, cancel <-chan struct{}) (s uint64, cancelled bool) {
	t := &e.ticket
	want := gen<<dlGenShift | dlPhaseWaiting
	for {
		if cancel == nil {
			<-t.done
		} else {
			select {
			case <-t.done:
			case <-cancel:
				if e.orphan(want) {
					return gen<<dlGenShift | dlPhaseOrphaned, true
				}
				if s = t.state.Load(); s&dlPhaseMask == dlPhaseDone {
					// Lost to the executor: take the done token its CAS is
					// followed by, so the reused ticket's channel starts empty.
					<-t.done
				}
				return s, true
			}
		}
		if s := t.state.Load(); s != want {
			return s, false
		}
	}
}

// orphaned performs the caller's side of an orphaning, whoever won the
// CAS (the tick on expiry, the caller on cancellation): record health
// evidence (timeout evidence only for a true expiry — a cancellation
// settles a carried probe without degrading the gate), take the executor
// off the shard's list and forget it. The executor finishes on its own
// descriptor and exits; the client replaces it lazily and keeps its hold.
//
//ppc:coldpath -- a deadline already expired (or the ctx was cancelled); the call is failing
func (c *Client) orphaned(cr callRec, e *dlExec, cause error) error {
	err := ErrDeadline
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrDeadline, cause)
	}
	c.shard.deadlineExpired.Add(1)
	if cr.svc.health != nil && cause == nil {
		cr.svc.recordTimeout(cr.counters)
	}
	if cr.probe {
		// A cancelled probe is no evidence: back to degraded, where a timeout has already sent it.
		cr.probeDone(err)
	}
	e.unlist()
	c.dl = nil
	c.rec.dl.Store(nil)
	return err
}

// AsyncCallNotifyDeadline is AsyncCallNotify with a bound on queueing
// delay: if no worker has *started* the request within d of submission,
// it is settled as expired — counted in ShardStats.DeadlineExpirations,
// recorded as timeout evidence for the service's health gate, and
// never executed. A d <= 0 is identical to AsyncCallNotify. The bound
// covers time in the ring only; a handler already started runs to
// completion. done (nil for none) receives one token whether the request
// executed or expired (an expired request is settled, not lost).
//
//ppc:hotpath
func (c *Client) AsyncCallNotifyDeadline(ep EntryPointID, args *Args, done chan<- struct{}, d time.Duration) error {
	_, err := c.async(ep, one(args), done, d)
	return err
}
