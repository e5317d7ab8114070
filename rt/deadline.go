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
// handlers on the client's held descriptor while the caller waits on a
// reusable ticket. The warm path allocates nothing — the ticket, its
// two channels and the executor all persist on the Client.
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
// call opens its waiting phase while expire re-validates the deadline
// *after* reading the state, so a stale expiry can never orphan a
// fresh call.
//
// When the deadline fires first the call is *orphaned*, and the safety
// question becomes: who owns the held descriptor, whose scratch buffer
// the still-running handler may touch at any moment? The protocol:
//
//  1. The watchdog tick (expiry) or the caller (ctx cancellation) CASes
//     the ticket waiting→orphaned. The *caller*, on observing the
//     orphaned phase, quarantines the CD (counted in
//     ShardStats.QuarantinedCDs — it is no longer "held", and it must
//     NOT be repooled while the handler runs), takes the executor off
//     the shard's list, forgets both the descriptor and the executor,
//     acknowledges the bookkeeping on the ticket (ack), and returns
//     ErrDeadline. The client transparently re-arms with a fresh
//     descriptor and executor on its next call.
//  2. A caller-side CAS loss means the executor finished between the
//     expiry firing and the caller reacting; the caller takes the
//     result normally — no orphan, no quarantine.
//  3. The executor, after the handler returns, CASes waiting→done. If
//     IT loses, the call was orphaned while it ran: the executor is
//     the one goroutine that has *observed handler return*, so it —
//     and only it — reclaims the quarantined descriptor into the shard
//     pool (unless the System closed meanwhile; then the descriptor is
//     dropped, same epoch rule as Release) and exits, since the client
//     has already replaced it. It first parks until the caller's ack
//     (a store followed by a wake token) so the quarantine gauge moves
//     up before the reclaim moves it down and a reclaimed descriptor
//     never repools ahead of the caller's accounting.
//
// The in-flight accounting (admitted / completed) brackets the
// *handler*, not the caller's wait: an orphaned handler still counts
// in flight until it returns, so a soft Kill drains orphans too, and
// System.Close's epoch check keeps a late reclaim from repopulating a
// drained pool.
//
// Health evidence: only a true expiry (cause == nil) is recorded as
// timeout evidence — a caller that cancels via ctx is not a sick
// service. A cancelled call that carried the half-open probe still
// settles the gate (back to degraded) so the probe lease is never
// leaked.
//
// Deadline semantics for asynchronous submissions are simpler — a
// queued request has no goroutine to orphan. AsyncCallDeadline stamps
// the request with an absolute expiry; a worker that dequeues it past
// the expiry settles it (accounting, health evidence, notification)
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
	// orphan-side CASes (expire, cancel) and the arming store
	// carry no payload and are //ppc:nopublish at the site.
	//
	//ppc:atomic
	//ppc:publishes(args, err)
	state atomic.Uint64
	// ack carries the generation whose orphan bookkeeping the caller has
	// completed; the executor's reclaim waits for it so quarantine
	// accounting is ordered before the repool.
	//
	//ppc:atomic
	ack atomic.Uint64
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
// already pending: coalescing and never blocking, so the tick's expire
// and a repeated retire can both use it. A token carries
// nothing; its receiver re-checks the word or flag it waits on.
//
//ppc:coldpath -- a channel send: the scheduler is involved by design
func sendToken(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// expire is the tick-side orphaning: CAS this ticket's current waiting
// generation to orphaned, on behalf of a caller whose deadline d has
// passed. The deadline re-validation AFTER the state read is what
// defeats the stale-deadline ABA: if the state word belongs to a newer
// call, the word was zeroed (the older call's disarm) before that state
// was stored and has held only the newer call's own expiry since, so a
// re-read that still sees d is seeing a deadline of the call it orphans.
//
//ppc:coldpath -- runs on the shard tick, only for an expired call
func (t *dlTicket) expire(d int64) {
	s := t.state.Load()
	if s&dlPhaseMask != dlPhaseWaiting {
		return
	}
	if t.deadline.Load() != d {
		return
	}
	//ppc:nopublish -- orphan transition: carries no payload, the caller discards results
	if !t.state.CompareAndSwap(s, s&^dlPhaseMask|dlPhaseOrphaned) {
		return
	}
	sendToken(t.done)
}

// dlReq is one unit of work handed to the executor: the call's record
// and the descriptor it runs on. It lives inline in dlExec: the caller
// writes it, then publishes it with the wake token; the executor copies
// it out after receiving that. Strictly SPSC — the channel orders every
// handoff.
type dlReq struct {
	callRec
	cd    *callDesc
	epoch uint64 // close epoch at descriptor acquisition
	gen   uint64 // the arming generation (tags the state CASes)
}

// dlExec is the per-client deadline executor: one goroutine, one
// inline request slot, one reusable ticket. The handoff is park-first
// in both directions: the executor blocks on wake, the caller on
// ticket.done, and each send readies the other side on the sender's
// own processor.
type dlExec struct {
	sys  *System
	sh   *shard
	prog uint32 // the client's program ID
	idx  int    // position in sh.dlExecs, -1 once off the list; guarded by sh.dlMu
	// wake is the executor's park: buffered(1). The caller's send and
	// the executor's receive are req's publish edge (one token per
	// request, so the send never finds the buffer full); retire and the
	// orphan ack send a non-blocking token that carries nothing.
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
// CallDeadline, or the first after an orphaning) and puts it on the
// shard's list, then makes sure the tick loop is running at the
// deadline tick to drive expiries.
//
//ppc:coldpath -- executor construction, once per client (plus once per orphaning)
func (c *Client) armDeadlineExec() {
	sh := c.shard
	e := &dlExec{sys: c.sys, sh: sh, prog: c.program}
	e.wake = make(chan struct{}, 1)
	e.ticket.done = make(chan struct{}, 1)
	sh.dlMu.Lock()
	e.idx = len(sh.dlExecs)
	sh.dlExecs = append(sh.dlExecs, e)
	sh.dlMu.Unlock()
	sh.startTick(c.sys)
	c.dl = e
	// Mirror the executor on the ownership record so the scavenger can
	// retire it if the client dies idle.
	c.rec.dl.Store(e)
	go e.loop()
}

// unlist swap-deletes the executor from its shard's list: the tick will
// not look at its deadline word again. Idempotent — Release and the
// scavenger may both retire one executor.
//
//ppc:coldpath -- executor retirement, once per orphaning or Release
func (e *dlExec) unlist() {
	sh := e.sh
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
// armed deadline that has come due is orphaned on its parked caller's
// behalf, then cleared — by CAS, not store, so a concurrent re-arm's
// fresh expiry survives.
//
//ppc:coldpath -- periodic scan on the tick goroutine, off every call path
func (sh *shard) expireDeadlines(now int64) {
	sh.dlMu.Lock()
	defer sh.dlMu.Unlock()
	for _, e := range sh.dlExecs {
		t := &e.ticket
		if d := t.deadline.Load(); d != 0 && d <= now {
			t.expire(d)
			t.deadline.CompareAndSwap(d, 0)
		}
	}
}

// loop runs handlers on behalf of deadline callers until retired
// (Client.Release or the scavenger) or orphaned.
func (e *dlExec) loop() {
	t := &e.ticket
	for {
		<-e.wake
		if e.exit.Load() {
			return
		}
		req := e.req // copy out; the caller may rewrite req after this call resolves
		err := e.sys.dispatch(req.cd, req.svc, req.st, req.h, &t.args, e.prog, false)
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
		// Orphaned while running. Park until the caller has finished the
		// quarantine bookkeeping (its ack is followed by a wake token), so
		// the gauge increments before this reclaim decrements it and the
		// descriptor never repools early. Then this goroutine — the one
		// that observed handler return — owns the reclaim; the client
		// re-armed long ago, so retire quietly.
		for t.ack.Load() != req.gen {
			<-e.wake
		}
		e.sh.reclaimQuarantined(req.cd, e.sys.closeEpoch.Load() == req.epoch)
		return
	}
}

// retire asks an idle executor to exit (Client.Release; a Client is
// single-goroutine by contract, so no call is in flight) and takes it
// off the shard's list. Idempotent: Release and the scavenger may both
// retire one executor; the second token is dropped or left in the
// buffer of a goroutine that already exited.
//
//ppc:coldpath -- executor retirement, off every call path
func (e *dlExec) retire() {
	e.exit.Store(true)
	sendToken(e.wake)
	e.unlist()
}

// reclaimQuarantined ends a descriptor's quarantine after its orphaned
// handler returned. Called only by the executor goroutine that
// observed the return (see docs/INVARIANTS.md: quarantine release).
//
//ppc:coldpath -- orphan cleanup, once per expired call
func (sh *shard) reclaimQuarantined(cd *callDesc, repool bool) {
	sh.quarantinedCDs.Add(-1)
	if repool {
		sh.pushCD(cd)
	}
}

// CallDeadline is Call with an upper bound on how long the caller
// waits. The handler itself is never interrupted — Go cannot preempt a
// running function safely — so an expired call is *orphaned*: the
// caller returns ErrDeadline while the handler runs to completion on
// the executor goroutine, its descriptor quarantined until it does.
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
//ppc:rmwbudget(6) -- busy CAS, admission, arm (ticket, deadline word: 2), disarm, owner exit
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
// synchronous core split at the handoff. The ownership entry of Call,
// then the word flipped held→busy (the deadline path is the one that
// transitions it: the descriptor must stay pinned against scavenging
// while the executor may touch it), then the entry and the admission
// every synchronous call makes; the executor dispatches, completes and,
// if the caller is still waiting, settles. Every exit but an orphaning
// restores busy→held; an orphaning leaves the still-busy descriptor to the
// executor's quarantine. d == 0: no expiry (cancellation only); cancel may be nil.
func (c *Client) callDeadline(ep EntryPointID, args *Args, d time.Duration, cancel <-chan struct{}, ctx context.Context) error {
	if err := c.preflight(one(args)); err != nil {
		return err
	}
	if err := c.own(args); err != nil {
		return err
	}
	cd := c.held
	if !cd.owner.CompareAndSwap(c.owHeld, c.owBusy) {
		return c.ownerLost(one(args)) // condemned since own's life check
	}
	sh := c.shard
	cr, err := sh.enter(ep, one(args), c.rec)
	if err == nil {
		if cr.st = cd.stripeOf(cr.svc); !cr.begin() {
			err = cr.fail(sh, one(args), ErrKilled)
		}
	}
	if err != nil {
		c.ownerExit(cd)
		return err
	}
	if c.dl == nil {
		c.armDeadlineExec()
	}
	exec := c.dl
	t := &exec.ticket
	exec.gen++
	gen := exec.gen
	t.args = *args
	// The ticket's copy owns the attached leases from here: the
	// executor's dispatch settles them after the handler returns — for
	// an orphaned call too, which is exactly the lease-outlives-
	// quarantine invariant (docs/INVARIANTS.md). Strip the caller-side
	// count so the orphan path cannot release a second time.
	transferPayloads(args)
	//ppc:nopublish -- arming store: opens the waiting phase, the Done CAS publishes the results
	t.state.Store(gen<<dlGenShift | dlPhaseWaiting)
	if d > 0 {
		// Arm BEFORE publishing the request so the bound covers the whole
		// handoff, and after the state store: the tick clears a due word
		// whether or not it found a waiting call to orphan. The expiry
		// rounds up by one tick from the coarse clock: staleness ≤ one
		// tick, so the tick never fires before d has elapsed, and at most
		// ~2 ticks after.
		t.deadline.Store(sh.clock.read() + int64(d) + int64(sh.dlTick))
	}
	exec.req = dlReq{callRec: cr, cd: cd, epoch: c.heldEpoch, gen: gen}
	// Hand off: the send readies the executor on this processor, and
	// blocking in dlWait is what lets it run there.
	exec.wake <- struct{}{}
	s, cancelled := dlWait(t, gen, cancel)
	if s&dlPhaseMask != dlPhaseDone {
		// Orphaned: by the tick, a true expiry, or by the cancellation.
		var cause error
		if cancelled {
			cause = ctx.Err()
		}
		return c.orphaned(cr, exec, gen, cause)
	}
	if d > 0 {
		t.deadline.Store(0) // disarm
	}
	*args = t.args // done, and settled by the executor before its token
	c.ownerExit(cd)
	return t.err
}

// dlWait parks the caller on the ticket's done token until the call's
// state word leaves gen|waiting, re-checking the word on every token, and
// returns the state the call resolved to — through cancel, and saying so,
// if the cancel channel fired first.
func dlWait(t *dlTicket, gen uint64, cancel <-chan struct{}) (s uint64, cancelled bool) {
	want := gen<<dlGenShift | dlPhaseWaiting
	for {
		if cancel == nil {
			<-t.done
		} else {
			select {
			case <-t.done:
			case <-cancel:
				return t.cancel(gen), true
			}
		}
		if s := t.state.Load(); s != want {
			return s, false
		}
	}
}

// cancel resolves a ctx cancellation observed while waiting: try to
// orphan the call; if the executor or the tick resolved it first, honor
// that resolution instead (expiry and cancellation racing, either is
// correct and the caller keeps the cancellation cause). Returns the state
// the call resolved to.
//
//ppc:coldpath -- the caller is abandoning the call
func (t *dlTicket) cancel(gen uint64) uint64 {
	orphaned := gen<<dlGenShift | dlPhaseOrphaned
	//ppc:nopublish -- orphan transition: the caller is abandoning the call, no payload
	if t.state.CompareAndSwap(gen<<dlGenShift|dlPhaseWaiting, orphaned) {
		return orphaned
	}
	s := t.state.Load()
	if s&dlPhaseMask == dlPhaseDone {
		// Lost to the executor: the call completed. Take the done token
		// its CAS is followed by, so the reused ticket starts the next
		// call with an empty channel.
		<-t.done
	}
	return s
}

// orphaned performs the caller's side of an orphaning, whoever won the
// CAS (the tick on expiry, the caller on cancellation): quarantine
// the descriptor, record health evidence (timeout evidence only for a
// true expiry — a cancellation settles a carried probe without
// degrading the gate), take the executor off the shard's list, replace
// it lazily, and acknowledge the bookkeeping so the executor's reclaim
// may proceed.
//
//ppc:coldpath -- a deadline already expired (or the ctx was cancelled); the call is failing
func (c *Client) orphaned(cr callRec, e *dlExec, gen uint64, cause error) error {
	sh := c.shard
	err := ErrDeadline
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrDeadline, cause)
	}
	// The descriptor leaves "held" accounting but must not reach the
	// pool until the executor observes handler return.
	sh.heldCDs.Add(-1)
	sh.quarantinedCDs.Add(1)
	sh.deadlineExpired.Add(1)
	if cr.svc.health != nil && cause == nil {
		cr.svc.recordTimeout(cr.counters)
	}
	if cr.probe {
		// A cancelled probe is no evidence: back to degraded, where a timeout has already sent it.
		cr.probeDone(err)
	}
	e.unlist()
	c.held = nil
	c.dl = nil
	// The ownership mirrors forget the quarantined descriptor and the
	// retiring executor: the executor's reclaim protocol owns both from
	// here (the descriptor's word stays owBusy through quarantine — the
	// scavenger never touches it).
	c.rec.cd.Store(nil)
	c.rec.dl.Store(nil)
	e.ticket.ack.Store(gen)
	sendToken(e.wake)
	return err
}

// AsyncCallDeadline is AsyncCall with a bound on queueing delay: if no
// worker has *started* the request within d of submission, it is
// settled as expired — counted in ShardStats.DeadlineExpirations,
// recorded as timeout evidence for the service's health gate, and
// never executed. A d <= 0 is identical to AsyncCall. The bound covers
// time in the ring only; a handler already started runs to completion.
//
//ppc:hotpath
func (c *Client) AsyncCallDeadline(ep EntryPointID, args *Args, d time.Duration) error {
	return c.AsyncCallNotifyDeadline(ep, args, nil, d)
}

// AsyncCallNotifyDeadline is AsyncCallDeadline with a completion
// notification: done receives one token whether the request executed
// or expired (an expired request is settled, not lost).
//
//ppc:hotpath
func (c *Client) AsyncCallNotifyDeadline(ep EntryPointID, args *Args, done chan<- struct{}, d time.Duration) error {
	_, err := c.async(ep, one(args), done, d)
	return err
}
