package rt

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// Per-call deadlines and the orphaning protocol.
//
// A plain Call runs the handler on the caller's own goroutine — the
// whole point of the PPC design — which means the caller cannot
// abandon it: Go offers no way to preempt your own stack. CallDeadline
// therefore routes execution through an *executor*: a goroutine that
// runs handlers on a call descriptor of its own (the paper's worker-held
// CD) while the caller waits on the executor's reusable ticket.
//
// Executors are pooled per shard, as the paper's workers are pooled per
// processor, and a call takes one for its duration. A client holds
// nothing for the deadline path: every executor of a shard has a slot on
// shard.dlExecs for life (the tick walks the list) and the idle ones are
// on the shard's idxStack dlIdle, by slot number. A call pops one
// (popExec: one CAS; an empty stack makes one — goroutine, descriptor,
// ticket — and registers it) and whoever reads the ticket last pushes it
// back (pushExec: link store and CAS), so the warm path allocates nothing
// and costs the same however many calls are in flight (EXPERIMENTS.md
// E25). The list grows to the shard's peak of concurrent deadline calls,
// not to its client count; the stack is LIFO, so a lone caller keeps
// reusing one.
//
// An executor is poppable only after its last reader is done with the
// ticket: the caller of a completed call, whichever of caller and executor
// leaves an orphaned one second (docs/INVARIANTS.md, "The last-reader
// invariant").
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
// absolute expiry into the ticket's deadline word (zero: none), made
// before the call's waiting phase opens, and nothing disarms it: the
// executor's next call overwrites it. The shard's tick (watchdog.go)
// walks shard.dlExecs, performing the dlWaiting→dlOrphaned CAS on behalf
// of every waiting caller whose word has come due, followed by the same
// done token the executor would send. The walk is one cache line per
// executor, and there are as many executors as the shard has had deadline
// calls in flight at once (EXPERIMENTS.md E25).
//
// Timing contract: arming rounds the expiry up by one tick from the
// shard's coarse clock, and every tick refreshes that clock before it
// walks the list, so a deadline is settled never before d has elapsed
// and at most ~2 ticks after, for any d. The tick is deadlineTick, or
// Options.WatchdogInterval when that is finer.
//
// The ticket state word packs a per-executor generation with a phase
// (gen<<3 | waiting/done/orphaned/left); the call that pops the executor
// opens the next generation, so a deadline read from call N and acted on
// during call N+1 fails its CAS, and the tick re-validates the deadline
// after reading the state. A done token only ever means "re-check the
// state word".
//
// When the deadline fires first the call is *orphaned*: the tick (expiry)
// or the caller (ctx cancellation) CASes the ticket waiting→orphaned, and
// the caller returns ErrDeadline while the handler runs on, on the
// executor's own descriptor; the executor, losing its waiting→done CAS,
// leaves the ticket. QuarantinedCDs counts such executors
// (docs/INVARIANTS.md, "The quarantine invariant").
//
// Lifecycle. An executor is made on a pop that finds none idle and lives
// until the shard is closed: the pool does not shrink, and the 1 ms tick
// runs from a shard's first deadline call until its last executor has
// exited. Close pops every idle executor and closes its wake channel, and
// a pushExec that finds the shard closed does the same; an exiting
// executor empties its slot and pushes its descriptor back. Executors are
// not joined by Close and take no heartbeat slot: an orphan may outlive
// Close by contract, and a pop that finds every executor busy makes
// another, which is all the compensation a stuck one needs.
//
// The in-flight accounting (admitted / completed) brackets the
// *handler*, not the caller's wait: an orphaned handler still counts
// in flight until it returns, so a soft Kill drains orphans too.
//
// Health evidence is the caller's to report, for the outcome it returns:
// a completed call's on the Done ticket, an orphaned call's in orphaned —
// only a true expiry (cause == nil) is timeout evidence; a caller that
// cancels via ctx is not a sick service. A cancelled half-open probe
// leaves the gate to its lease (health.go).
//
// Deadline semantics for asynchronous submissions are simpler — a
// queued request has no goroutine to orphan. Batch.SetDeadline
// stamps each request with an absolute expiry; a worker that dequeues it
// past the expiry settles it (accounting, health evidence, notification)
// without running the handler. The dequeue check shares the shard's
// coarse clock, refreshed once per drained batch. See
// shard.expireAsync.

// deadlineTick is how often a shard with a deadline executor registered
// walks its list (EXPERIMENTS.md E14: finer buys nothing, coarser only
// adds lateness). A finer Options.WatchdogInterval takes its place.
const deadlineTick = time.Millisecond

// Ticket state word layout: gen<<dlGenShift | phase (zero: never used). A
// call's life is waiting → done, or waiting → orphaned → left.
const (
	dlPhaseWaiting  uint64 = 1 + iota // a call whose handler has not returned
	dlPhaseDone                       // the executor published the results
	dlPhaseOrphaned                   // the deadline (or a cancellation) won
	dlPhaseLeft                       // orphaned, and one of the two parties has let go of the ticket
	dlPhaseMask     uint64 = 7
	dlGenShift             = 3
)

// dlTicket is the rendezvous between a deadline caller and the executor
// it took. Reused across calls; the generation-tagged state CAS is the
// single synchronization point that decides completion vs orphaning.
type dlTicket struct {
	// state is gen<<3|phase; see the file comment for the protocol. The
	// call that popped the executor stores the next generation's waiting
	// phase. The gen|Done CAS is the release edge for the handler's results:
	// the executor writes t.args (via dispatch) and t.err, then CASes,
	// and the caller reads both only after loading a Done state. Every
	// other transition carries no payload and is //ppc:nopublish at the
	// site.
	//
	//ppc:atomic
	//ppc:publishes(args, err)
	state atomic.Uint64
	// deadline is the armed absolute expiry (unix nanos); 0 = none. The
	// caller stores it before it opens the waiting phase, the shard's tick
	// loads it.
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
// already pending: coalescing and never blocking. A token carries
// nothing; its receiver re-checks the word or flag it waits on.
//
//ppc:coldpath -- a channel send: the scheduler is involved by design
func sendToken(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
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

// leave is how each party of an orphaning lets go of the ticket — the
// caller once it has seen the orphaning, the executor once its handler has
// returned and it has lost the Done CAS: the first says so in the state
// word, the second hands the executor back. Until the caller has left it
// may still be parked on the ticket's done channel, and a channel two
// callers wait on loses wakeups.
//
//ppc:coldpath -- the call was orphaned
func (e *dlExec) leave(gen uint64) {
	//ppc:nopublish -- an orphaned call's results are discarded
	if !e.ticket.state.CompareAndSwap(gen<<dlGenShift|dlPhaseOrphaned, gen<<dlGenShift|dlPhaseLeft) {
		e.cd.shard.pushExec(e)
	}
}

// dlReq is one unit of work handed to the executor: the call's record,
// its generation and its caller's program ID. It lives inline in dlExec:
// the caller writes it, then publishes it with the wake token; the
// executor copies it out after receiving that. Strictly SPSC — the
// channel orders every handoff.
type dlReq struct {
	callRec
	gen  uint64 // the arming generation (tags the state CASes)
	prog uint32
}

// dlExec is one pooled deadline executor: one goroutine, one descriptor,
// one inline request slot, one reusable ticket. The handoff is park-first
// in both directions: the executor blocks on wake, the caller on
// ticket.done, and each send readies the other side on the sender's own
// processor.
type dlExec struct {
	sys *System
	// slot is the executor's place on shard.dlExecs for life, the number
	// shard.dlIdle links it by.
	slot uint32
	// cd is the executor's own descriptor, out of the pool from newExec
	// until loop exits. The holder touches cd (its stripe cache) only while
	// the executor is parked.
	cd *callDesc
	// wake is the executor's park: buffered(1). The holder's send and the
	// executor's receive are req's publish edge (one token per request, so
	// the send never finds the buffer full); retiring an executor closes it.
	wake   chan struct{}
	req    dlReq // holder-written, published by the wake send
	ticket dlTicket
}

// execs is the shard's executor slots: a snapshot nobody writes. A slot
// whose executor has exited is nil.
func (sh *shard) execs() []*dlExec { return *sh.dlExecs.Load() }

// deadlineExecs is how many slots the shard's tick has to walk.
func (sh *shard) deadlineExecs() int { return len(sh.execs()) }

// popExec takes an idle executor off the stack (nil: none); the caller
// has it to itself until it pushes it back. The slot a pop wins was on the
// stack, so its executor has not exited.
func (sh *shard) popExec() *dlExec {
	if i := sh.dlIdle.pop(); i >= 0 {
		return sh.execs()[i]
	}
	return nil
}

// pushExec hands an executor back once the last reader of its call is
// done with the ticket. The push and the closed load are a Dekker pair
// with close's store and pops: a closed shard keeps no idle executor.
func (sh *shard) pushExec(e *dlExec) {
	sh.dlIdle.put(e.slot)
	if sh.closed.Load() {
		sh.retireExecs()
	}
}

// newExec makes an executor on a descriptor popped for it, held by its
// caller as a popped one is, gives it a slot (the list is replaced, never
// written, so the tick and popExec read it without the lock) and makes
// sure the tick loop is running at the deadline tick to drive expiries.
//
//ppc:coldpath -- pool growth: the shard has more deadline calls in flight than ever before
func (sh *shard) newExec(sys *System) *dlExec {
	e := &dlExec{sys: sys, wake: make(chan struct{}, 1)}
	e.cd = sh.popCD()
	e.ticket.done = make(chan struct{}, 1)
	sh.dlMu.Lock()
	list := sh.execs()
	e.slot = uint32(len(list))
	list = append(slices.Clone(list), e)
	sh.dlExecs.Store(&list)
	sh.dlIdle.grow(e.slot + 1)
	sh.dlMu.Unlock()
	sh.startTick(sys)
	go e.loop()
	return e
}

// retireExecs ends every idle executor of a closed shard: whoever pops
// one is the one party that may touch its wake.
//
//ppc:coldpath -- the shard is closed
func (sh *shard) retireExecs() {
	for e := sh.popExec(); e != nil; e = sh.popExec() {
		close(e.wake)
	}
}

// expireDeadlines is the tick's walk of the shard's executors: every
// deadline that has come due on a waiting ticket orphans its call on the
// parked caller's behalf. A due word on a ticket that is not waiting is a
// resolved call's, which the next call overwrites, or that of a call about
// to open its phase. Re-reading the deadline AFTER the state is what
// defeats the stale-deadline ABA: a call stores its own expiry (or zero)
// before it stores its waiting state, so a re-read that follows a load of
// that state and still sees d is seeing a deadline of the call it orphans.
//
//ppc:coldpath -- periodic scan on the tick goroutine, off every call path
func (sh *shard) expireDeadlines(now int64) {
	for _, e := range sh.execs() {
		if e == nil {
			continue
		}
		t := &e.ticket
		d := t.deadline.Load()
		if d == 0 || d > now {
			continue
		}
		if s := t.state.Load(); s&dlPhaseMask == dlPhaseWaiting && t.deadline.Load() == d && e.orphan(s) {
			sendToken(t.done)
		}
	}
}

// loop runs handlers on behalf of deadline callers until the executor is
// retired, then empties its slot (trailing empty slots go, so a shard with
// no executor has no list) and returns the descriptor as an async worker
// does.
func (e *dlExec) loop() {
	sh, t := e.cd.shard, &e.ticket
	for range e.wake {
		req := e.req // copy out; the next holder rewrites req
		t.err = e.sys.dispatch(e.cd, req.svc, req.st, req.h, &t.args, req.prog, false)
		// Handler done: complete exactly as callHeld would — for an orphaned
		// call too, which is what lets a soft Kill drain it.
		req.svc.complete(req.st)
		want := req.gen<<dlGenShift | dlPhaseWaiting
		if t.state.CompareAndSwap(want, req.gen<<dlGenShift|dlPhaseDone) {
			sendToken(t.done) // the caller reads the ticket and hands the executor back
			continue
		}
		// Orphaned while running: the quarantine ends here, with the one
		// goroutine that observed handler return.
		sh.quarantinedCDs.Add(-1)
		e.leave(req.gen)
	}
	sh.dlMu.Lock()
	list := slices.Clone(sh.execs())
	list[e.slot] = nil
	for len(list) > 0 && list[len(list)-1] == nil {
		list = list[:len(list)-1]
	}
	sh.dlExecs.Store(&list)
	sh.dlMu.Unlock()
	sh.pushCD(e.cd)
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
// at most ~2 ticks after d elapses and never before (a d past 100 years
// counts as 100 years; the tick is 1 ms, or WatchdogInterval when finer).
//
// A d <= 0 means no deadline: identical to Call (including running the
// handler on the caller's goroutine).
//
// The warm path — an executor idle, deadline met — performs zero heap
// allocations and arms no timer: the executor and its ticket are
// reused, and arming is one store into the ticket's deadline word.
//
//ppc:rmwbudget(5) -- executor pop, deadline word, waiting phase, executor link and push
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

// callDeadline runs one bounded call through an executor of the shard's
// pool — the synchronous core split at the handoff: the client half and
// the entry every synchronous call makes, an executor taken for the call,
// the admission on the stripe of its descriptor; the executor dispatches
// and completes, and the caller settles whichever outcome it returns. The
// client's own hold and its slot in the record are not involved, and a
// client that dies mid-call is in the position of one that dies inside a
// plain Call: the call runs to its end. d == 0: no expiry (cancellation
// only); cancel may be nil.
func (c *Client) callDeadline(ep EntryPointID, args *Args, d time.Duration, cancel <-chan struct{}, ctx context.Context) error {
	if err := c.preflight(one(args)); err != nil {
		return err
	}
	c.released = false // a Release after this call is not a second Release of an earlier hold
	sh := c.shard
	cr, err := sh.enter(ep, one(args))
	if err != nil {
		return err
	}
	exec := sh.popExec()
	if exec == nil {
		exec = sh.newExec(c.sys)
	}
	if cr.st = exec.cd.stripeOf(cr.svc); !cr.begin() {
		sh.pushExec(exec)
		return cr.fail(sh, one(args), ErrKilled)
	}
	t := &exec.ticket
	gen := t.state.Load()>>dlGenShift + 1
	t.args = *args
	// The ticket's copy owns the attached leases from here: the
	// executor's dispatch settles them after the handler returns — for
	// an orphaned call too, which is exactly the lease-outlives-
	// quarantine invariant (docs/INVARIANTS.md). Strip the caller-side
	// count so the orphan path cannot release a second time.
	transferPayloads(args)
	// Arm, then open the waiting phase, both BEFORE publishing the request
	// so the bound covers the whole handoff: the store replaces the previous
	// call's word (nothing else clears a met deadline), and the tick acts on
	// a due word only once it finds the ticket waiting. The expiry rounds up
	// by one tick from the coarse clock: staleness ≤ one tick, so the tick
	// never fires before d has elapsed, and at most ~2 ticks after.
	var due int64
	if d > 0 {
		due = sh.clock.read() + int64(min(d, maxWait)) + int64(sh.dlTick)
	}
	t.deadline.Store(due)
	//ppc:nopublish -- arming: the Done CAS publishes the results
	t.state.Store(gen<<dlGenShift | dlPhaseWaiting)
	exec.req = dlReq{callRec: cr, gen: gen, prog: c.program}
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
		exec.leave(gen) // the ticket is no longer ours
		return c.orphaned(cr, cause)
	}
	*args, err = t.args, t.err
	sh.pushExec(exec) // the results are copied out: the next call may have it
	if cr.svc.health != nil {
		cr.svc.recordOutcome(cr.counters, err)
	}
	return err
}

// wait parks the caller on the ticket's done token until the call's
// state word leaves gen|waiting, re-checking the word on every token, and
// returns the state the call resolved to. If the cancel channel fires
// first it tries to orphan the call and says so; a call the executor or
// the tick resolved before that keeps its resolution (expiry and
// cancellation racing, either is correct and the caller keeps the
// cancellation cause). The token of a resolution this caller saw in the
// word first stays in the channel, or arrives there later, for the
// executor's next call, which re-checks and parks again: one caller at a
// time waits on a ticket (leave), so no token it is owed goes elsewhere.
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
				return t.state.Load(), true
			}
		}
		if s := t.state.Load(); s != want {
			return s, false
		}
	}
}

// orphaned performs the caller's side of an orphaning, whoever won the
// CAS (the tick on expiry, the caller on cancellation): count it and
// record health evidence (timeout evidence only for a true expiry — a
// cancellation is no evidence). The executor finishes on its own
// descriptor and goes back to the pool.
//
//ppc:coldpath -- a deadline already expired (or the ctx was cancelled); the call is failing
func (c *Client) orphaned(cr callRec, cause error) error {
	err := ErrDeadline
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrDeadline, cause)
	}
	c.shard.deadlineExpired.Add(1)
	c.shard.clock.refresh() // a retry's arm rounds up from a current reading, as a first executor's does (startTick)
	if cr.svc.health != nil && cause == nil {
		cr.svc.recordTimeout(cr.counters)
	}
	return err
}
