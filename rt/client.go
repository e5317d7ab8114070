package rt

import "unsafe"

// Ctx is the handler execution context — the worker's view of a call.
type Ctx struct {
	sys *System
	svc *Service
	cd  *callDesc

	// CallerProgram is the caller's identity for server-side
	// authorization (§4.1).
	CallerProgram uint32

	async bool

	// pay is the call's captured payload descriptor set (payload.go):
	// snapshotted from the argument words at dispatch, before the
	// handler runs, so Payload views and the settlement release work
	// from an immutable copy the handler cannot scribble over. Plain
	// field — the servicing goroutine is the only toucher.
	pay payloadSet
}

// System returns the owning system.
func (c *Ctx) System() *System { return c.sys }

// Service returns the service being invoked.
func (c *Ctx) Service() *Service { return c.svc }

// IsAsync reports whether no caller is waiting.
func (c *Ctx) IsAsync() bool { return c.async }

// Scratch returns the per-call scratch buffer — the recycled "stack
// page" this call borrowed from the shard pool. Contents do not survive
// the call (the next caller of any service on this shard may get the
// same buffer), exactly like the serially-shared physical stacks of the
// paper; services that need private persistent state keep it elsewhere.
func (c *Ctx) Scratch() []byte { return c.cd.scratch }

// Shard returns the servicing shard index.
func (c *Ctx) Shard() int { return c.cd.shard.id }

// Call makes a nested synchronous call (the server acting as a client)
// on the same shard.
//
//ppc:hotpath
func (c *Ctx) Call(ep EntryPointID, args *Args) error {
	return c.sys.callOn(c.cd.shard, ep, args, c.svc.epProgram())
}

// Client is a caller bound to one shard. Like a process bound to a
// processor in the paper, a Client is owned by a single goroutine;
// create one per calling goroutine (they are cheap). Sharing a Client
// between goroutines is a data race: the client holds a call
// descriptor across calls (Figure 2's "hold CD"), and that descriptor
// has exactly one serial owner.
type Client struct {
	sys     *System
	shard   *shard
	program uint32

	// lane is the client's criticality class for asynchronous requests
	// (LaneDefault defers to the service's); tenant is its admission
	// identity (0: no tenant, the budget check compiles to one
	// predictable branch). Both immutable after construction
	// (NewClientWith).
	lane   Lane
	tenant TenantID

	// held is the client's held call descriptor: acquired from the
	// shard pool on the first Call (or an explicit Hold) and kept
	// across calls, so the warm path never touches the pool's shared
	// free list. Plain fields — the owning goroutine is the only
	// toucher.
	held *callDesc
	// Size-class pad, decided (ROADMAP, EXPERIMENTS.md E24): Client stays
	// 72 bytes, out of callStripe's 64-byte allocator class — pinned by
	// TestClientSizeClass, not by the layout analyzer (no line is hot).
	_ [2]uint64

	// rec is the client's ownership record (owner.go) — a slot for
	// everything this client owns that outlives a call, for whoever
	// declares it dead to empty. Set at construction, immutable after.
	rec *clientRec
	// released marks a client that returned its held descriptor to the
	// pool and has taken nothing since (Hold and a deadline call clear
	// it); a second Release in that state is a loud failure.
	released bool
}

// NewClient creates a caller identity bound to a shard (round-robin
// within this System).
func (s *System) NewClient() *Client { return s.NewClientWith(ClientOptions{Shard: -1}) }

// NewClientOnShard creates a caller bound to an explicit shard.
func (s *System) NewClientOnShard(shardID int) *Client {
	if shardID < 0 {
		panic("rt: shard out of range")
	}
	return s.NewClientWith(ClientOptions{Shard: shardID})
}

// ClientOptions configures NewClientWith. The zero value is a client on
// shard 0 with the default lane and no tenant; Shard: -1 is NewClient.
type ClientOptions struct {
	// Shard binds the client to an explicit shard; negative means
	// round-robin within the System.
	Shard int
	// Lane is the client's criticality class for asynchronous requests
	// (lane.go). LaneDefault defers to the service's configured lane.
	// Ignored unless the System was built with Options.Lanes >= 2.
	Lane Lane
	// Tenant is the client's admission identity (tenant.go): nonzero
	// subjects every call to the tenant's per-shard token bucket once
	// ConfigureTenant has published one. Zero skips admission.
	Tenant TenantID
	// LivenessEpochs opts the client into missed-heartbeat death
	// detection (owner.go): a client that makes no call for more than
	// LivenessEpochs consecutive liveness epochs (one epoch per
	// shard tick) is declared dead and reclaimed, exactly as if
	// Abandon had been called. Zero (the default) disables the check —
	// explicit Abandon and the leaked-client cleanup backstop still
	// apply.
	LivenessEpochs int
}

// NewClientWith creates a caller with an explicit lane and tenant — the
// one place a Client is constructed and given its ownership record; only
// a client enrolled in liveness epochs takes a lock here. It panics on a
// shard past the end of the System's. The round-robin modulo runs in uint64 so
// it keeps working after the sequence counter wraps.
func (s *System) NewClientWith(o ClientOptions) *Client {
	shardID := o.Shard
	if shardID < 0 {
		shardID = int(s.bindSeq.Add(1) % uint64(len(s.shards)))
	}
	if shardID >= len(s.shards) {
		panic("rt: shard out of range")
	}
	lane := o.Lane
	if lane > LaneBestEffort {
		lane = LaneBestEffort
	}
	c := &Client{
		sys:     s,
		shard:   &s.shards[shardID],
		program: s.programs.Add(1),
		lane:    lane,
		tenant:  o.Tenant,
	}
	c.rec = c.shard.reg.register(c, o.LivenessEpochs)
	return c
}

// Lane returns the client's criticality class.
func (c *Client) Lane() Lane { return c.lane }

// Tenant returns the client's tenant ID (0: none).
func (c *Client) Tenant() TenantID { return c.tenant }

// one views a single argument block as a batch of one: the submission
// legs are written once, over a slice, and a single call is the slice
// of length one over the caller's own block.
func one(args *Args) []Args { return (*[1]Args)(unsafe.Pointer(args))[:] }

// preflight is the client half of every call, synchronous or not, over
// the requests of one submission, in the order that keeps a rejection
// from leaking: claim every attached lease out of the ownership record —
// from here a rejection releases them, and a reap must not — then the
// life check, then the whole submission charged to the tenant bucket at
// once, so a dead client's call spends nobody's budget. A claim lost to
// the reap submits nothing: what was already claimed is released, the
// rest is the reap's.
//
//ppc:hotpath
func (c *Client) preflight(argss []Args) error {
	for i := range argss {
		if argss[i][OpFlagsWord]&payloadCountMask == 0 {
			continue
		}
		if err := c.consumeArgs(&argss[i]); err != nil {
			c.shard.releaseBatchPayloads(argss[:i])
			return err
		}
	}
	if c.rec.state.Load() != crLive {
		return c.ownerLost(argss)
	}
	if c.tenant != 0 && len(argss) != 0 {
		return c.admitTenant(argss)
	}
	return nil
}

// admitTenant is the tenant QoS gate, called with c.tenant != 0 for a
// submission of len(argss) requests: one table load to find the shard's
// bucket replica and one fetch-add to take the tokens, all or nothing.
// An unconfigured tenant admits freely (like a service without a health
// gate); an empty bucket falls to the catch-up slow path (takeSlowN)
// and then sheds.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (c *Client) admitTenant(argss []Args) error {
	b := c.shard.tenantBucketFor(c.tenant)
	if b == nil || b.takeN(int64(len(argss)), &c.shard.clock) {
		return nil
	}
	return c.shard.throttle(argss)
}

// throttle sheds an over-budget submission with ErrShed, settling the
// payload leases attached to any of it — the same pre-admission contract
// as every other early rejection.
//
//ppc:coldpath -- the tenant is over budget; the submission is already failing
func (sh *shard) throttle(argss []Args) error {
	sh.tenantThrottled.Add(int64(len(argss)))
	sh.releaseBatchPayloads(argss)
	return ErrShed
}

// Program returns the client's program ID.
func (c *Client) Program() uint32 { return c.program }

// Shard returns the client's shard index.
func (c *Client) Shard() int { return c.shard.id }

// Hold pins a call descriptor to the client — Figure 2's "hold CD"
// configuration. The first Call does this implicitly; an explicit Hold
// just front-loads the acquisition (e.g. before a latency-sensitive
// loop). Idempotent. An abandoned client cannot re-acquire: Hold
// declines quietly and the next Call fails with ErrClientAbandoned.
//
//ppc:coldpath -- descriptor acquisition; the warm held path never comes here
func (c *Client) Hold() {
	if c.held != nil {
		return
	}
	rec := c.rec
	if rec.state.Load() != crLive {
		return
	}
	cd := c.shard.holdCD()
	c.released = false
	rec.cd.Store(cd)
	c.held = cd
	// File in the slot, then re-check (owner.go): a reap that swapped the
	// slot before the store never saw this descriptor, and the death that
	// sent it is visible here — take it back.
	if rec.state.Load() != crLive {
		c.dropDeadHold()
	}
}

// Release returns the held call descriptor to the shard pool; the next
// Call re-acquires one. System.Close changes nothing here: a descriptor
// held across it keeps working and is repooled like any other. Release is
// optional and finalizer-free: an unreleased Client's descriptor is
// reclaimed when the client is abandoned or collected; releasing just lets
// the pool reuse the descriptor immediately.
//
// Release is not idempotent: a second Release (or Close) of the same hold
// panics, because the first one already repooled the descriptor — a silent
// second repool could hand the same descriptor to two clients. Release on
// a never-held or abandoned client remains a quiet no-op.
//
//ppc:coldpath -- descriptor release, off the warm call path
func (c *Client) Release() {
	cd := c.held
	if cd == nil {
		if c.released && c.rec.state.Load() == crLive {
			panic("rt: double Release of a held client (descriptor already repooled)")
		}
		return
	}
	c.held = nil
	c.released = true
	// The hand-back exchange: an empty slot means the client was abandoned
	// and the reap took the descriptor — condemned, its accounting already
	// settled, so walk away quietly.
	if c.rec.cd.CompareAndSwap(cd, nil) {
		c.shard.releaseCD(cd)
	}
}

// Close releases the held call descriptor (it is Release under the
// conventional name; the Client remains usable and would re-acquire on
// the next Call).
func (c *Client) Close() { c.Release() }

// Held reports whether the client currently holds a call descriptor.
func (c *Client) Held() bool { return c.held != nil }

// Call performs a synchronous PPC-style call: the calling goroutine
// crosses directly into the server's handler, using only resources it
// already owns. The warm path runs on the client's held call
// descriptor against the shard's service-table replica — no locks, no
// shared mutable cache line, no CAS; the only atomic read-modify-writes
// are the admission/completion counters, on the call stripe the held
// descriptor owns (callStripe) — the lines a warm held call writes are
// its descriptor's and that stripe's, nothing of the shard's, so
// callers sharing a shard do not slow each other.
//
//ppc:hotpath
//ppc:rmwbudget(2)
func (c *Client) Call(ep EntryPointID, args *Args) error {
	// The plain warm call — no payload, no tenant — skips preflight on one branch.
	if args[OpFlagsWord]&payloadCountMask != 0 || c.tenant != 0 {
		if err := c.preflight(one(args)); err != nil {
			return err
		}
	}
	// Likewise own: nothing to do with a descriptor in hand, alive, unenrolled.
	if c.held == nil || c.rec.state.Load() != crLive || c.rec.epochs != 0 {
		if err := c.own(args); err != nil {
			return err
		}
	}
	cd := c.held
	cr, err := c.shard.enter(ep, one(args), c.rec)
	if err == nil {
		// Counters follow the descriptor: one pointer compare when warm.
		cr.st = cd.stripeOf(cr.svc)
		err = c.sys.callHeld(cd, cr, args, c.program)
	}
	// Ownership exit: a client abandoned mid-call takes its descriptor back
	// out of the slot, unless the reap condemned it first.
	if c.rec.state.Load() != crLive {
		c.tombstoneExit()
	}
	return err
}

// CallPooled is Call through the shard's descriptor pool instead of
// the held descriptor: one pool CAS pair per call — the Figure 2
// "pooled CD" baseline, and the same path nested Ctx.Call and Upcall
// use. Semantics are identical to Call.
//
//ppc:hotpath
//ppc:rmwbudget(0) -- the pooled leg is callOn's, the opt-in legs preflight's
func (c *Client) CallPooled(ep EntryPointID, args *Args) error {
	if err := c.preflight(one(args)); err != nil {
		return err
	}
	return c.sys.callOn(c.shard, ep, args, c.program)
}

// AsyncCall detaches the caller: the request is handed to the shard's
// worker pool and the caller continues immediately (§4.4). No results
// are returned. It is AsyncBatch over a batch of one.
//
//ppc:hotpath
//ppc:rmwbudget(1) -- the admission; the ring leg is submit's
func (c *Client) AsyncCall(ep EntryPointID, args *Args) error {
	_, err := c.async(ep, one(args), nil, 0)
	return err
}

// AsyncCallNotify is AsyncCall with a completion notification sent on
// done (the file-prefetch pattern: fire many, collect later).
//
//ppc:hotpath
func (c *Client) AsyncCallNotify(ep EntryPointID, args *Args, done chan<- struct{}) error {
	_, err := c.async(ep, one(args), done, 0)
	return err
}

// Upcall delivers a software-interrupt-style request (§4.4) from an
// arbitrary event source: no client identity, serviced synchronously on
// the named shard.
func (s *System) Upcall(shardID int, ep EntryPointID, args *Args) error {
	if shardID < 0 || shardID >= len(s.shards) {
		panic("rt: shard out of range")
	}
	return s.callOn(&s.shards[shardID], ep, args, 0)
}

// runIsolated invokes a handler, converting a panic into a returned
// fault value. The handler fault-injection site fires inside the
// containment scope, so an injected panic or stall is indistinguishable
// from the handler doing it — which is the point.
func runIsolated(s *System, h Handler, ctx *Ctx, args *Args) (fault any) {
	defer func() { fault = recover() }()
	_ = s.fireFault(FaultSiteHandler)
	h(ctx, args)
	return nil
}

// epProgram is the identity nested calls present (the server itself).
func (s *Service) epProgram() uint32 { return uint32(s.ep) | 1<<31 }

// callRec is one call's record from entry to settlement: what enter
// resolved for it and what its exits settle. Every call path — held,
// pooled, deadline, asynchronous — runs between the one entry
// (shard.enter) and one of two exits: fail before dispatch, settle after
// it. Four words, passed by value in registers; the deadline path hands
// its executor a copy.
type callRec struct {
	*epEntry             // the shard's replica of the entry point: service, handler, the (service, shard) counters
	st       *callStripe // where a synchronous call is admitted (set by its caller): the held descriptor's stripe, or the shard's
	rec      *clientRec  // the ownership record whose probe slot holds a carried probe, or nil
	probe    bool        // the call carries the gate's half-open probe and owes it a settlement
}

// enter is the one entry of every call path: read this shard's replica
// of the entry point (§4.5.5), pass the health gate, and publish a won
// half-open probe on the caller's ownership record so its reap can
// settle the gate if the client dies carrying it. The gate sheds before
// admission: a degraded service costs the caller one atomic load and no
// in-flight accounting, a service without a gate one nil check. A
// rejection releases the leases attached to argss: the attach gave them
// to the call, and a call that fails before dispatch still consumes them.
//
//ppc:hotpath
func (sh *shard) enter(ep EntryPointID, argss []Args, rec *clientRec) (callRec, error) {
	e, err := sh.resolve(ep)
	probe := false
	if err == nil && e.svc.health != nil {
		probe, err = e.svc.gateAdmit(e.counters)
	}
	if err != nil {
		sh.releaseBatchPayloads(argss)
		return callRec{}, err
	}
	cr := callRec{epEntry: e, probe: probe}
	if probe && rec != nil {
		cr.rec = rec
		rec.setProbe(e)
	}
	return cr, nil
}

// begin is the synchronous admission leg: the call joins its stripe's
// in-flight count, increment-then-check (Service.admit), until its
// completion. False: a kill got there first, the call fails with
// ErrKilled.
//
//ppc:hotpath
func (cr callRec) begin() bool { return cr.svc.admit(cr.st) }

// fail is the one exit of a call that entered and will not be
// dispatched — its admission backed out on a kill, its submission was
// refused: a carried probe goes back to the gate, and the leases still
// attached to argss are released.
//
//ppc:coldpath -- the call is failing before dispatch
func (cr callRec) fail(sh *shard, argss []Args, err error) error {
	if cr.probe {
		cr.probeDone(err)
	}
	sh.releaseBatchPayloads(argss)
	return err
}

// settle is the one settlement of a dispatched call to a service with a
// health gate, made by whoever reports the outcome err to the caller:
// health evidence, then a carried probe.
//
//ppc:hotpath
func (cr callRec) settle(err error) {
	cr.svc.recordOutcome(cr.counters, err)
	if cr.probe {
		cr.probeDone(err)
	}
}

// probeDone ends the call's carriage of the half-open probe: it comes
// out of the ownership record's slot first, so a reap cannot reopen a
// gate this settles, and an outcome that is no health evidence sends the
// gate back to degraded (Service.settleProbe).
//
//ppc:coldpath -- half-open probe bookkeeping
func (cr callRec) probeDone(err error) {
	if cr.rec != nil {
		cr.rec.probe.Store(nil)
	}
	cr.svc.settleProbe(cr.counters, err)
}

// callHeld is the synchronous core: an entered call run on a descriptor
// its caller serially owns — admission, dispatch, completion, settlement.
// Completion accounting is inlined, not deferred: dispatch contains
// handler panics itself (runIsolated), so no unwind can skip it, and a
// deferred closure costs measurable time at call rates.
//
//ppc:hotpath
func (s *System) callHeld(cd *callDesc, cr callRec, args *Args, program uint32) error {
	if !cr.begin() {
		return cr.fail(cd.shard, one(args), ErrKilled)
	}
	err := s.dispatch(cd, cr.svc, cr.st, cr.h, args, program, false)
	cr.svc.complete(cr.st)
	if cr.svc.health != nil {
		cr.settle(err)
	}
	return err
}

// callOn is the pooled synchronous call (CallPooled, nested Ctx.Call,
// Upcall): enter, then the core on a descriptor popped for the call and
// pushed back after it, admitted on the shard's own stripe — a pooled
// descriptor is whoever's turn it is. The scratch buffer is deliberately
// NOT zeroed before reuse — serial sharing of "stacks" is the point
// (§2); trust domains that must not share scratch use separate Systems.
//
//ppc:hotpath
//ppc:rmwbudget(6) -- pool pop (CAS, link clear), admission, completion, pool push (link, CAS)
func (s *System) callOn(sh *shard, ep EntryPointID, args *Args, program uint32) error {
	cr, err := sh.enter(ep, one(args), nil)
	if err != nil {
		return err
	}
	cr.st = &cr.counters.stripe
	cd := sh.popCD(defaultScratchBytes)
	err = s.callHeld(cd, cr, args, program)
	sh.pushCD(cd)
	return err
}

// faultError wraps a recovered handler panic for the caller.
//
//ppc:coldpath -- fault wrapping happens only when a handler panicked
func faultError(fault any) error {
	return &FaultError{Val: fault}
}

// serviceOneHeld runs one already-admitted async request on a
// worker-held descriptor. An async worker is the serial owner of its
// descriptor for its whole lifetime, so a batch drain recycles scratch
// with zero pool traffic — no CAS on the shared free list per request,
// the same serial-sharing argument as the paper's stack pages applied
// one level up.
//
//ppc:hotpath
func (s *System) serviceOneHeld(sh *shard, cd *callDesc, svc *Service, args *Args, program uint32) error {
	counters := &svc.perShard[sh.id]
	if svc.state.Load() == svcDead {
		// Hard-killed while queued: discard without executing. (A soft
		// kill waits for queued requests, so svcSoftKilled still runs.)
		// The discarded request's payload leases settle here — the ring
		// copy owned them from acceptance.
		svc.backOutN(counters, 1)
		sh.releaseArgsPayloads(args)
		return ErrKilled
	}
	// Completion accounting is inlined, not deferred: dispatch contains
	// handler panics itself (runIsolated), so no unwind can skip these,
	// and a deferred closure costs measurable time at ring rates.
	// Async requests resolve the handler from the service's
	// authoritative slot at execution time (Exchange keeps it current),
	// exactly as queued requests always have.
	err := s.dispatch(cd, svc, &counters.stripe, *svc.handler.Load(), args, program, true)
	svc.completeAsync(&counters.stripe)
	if svc.health != nil {
		svc.recordOutcome(counters, err)
	}
	return err
}

// dispatch authorizes and runs one request on cd with steady-state
// handler h, its scratch sized to the service — shared by the
// synchronous core (callHeld), the deadline executor and the async
// worker (serviceOneHeld). Synchronous callers resolve h from their
// shard's table replica; async workers from the service's authoritative
// handler slot. st is the stripe the call was admitted on. A normal
// return writes no counter here — the caller's completion is the call's
// count (callStripe); the exits that are not a normal return account for
// themselves in deny and abort.
//
//ppc:hotpath
func (s *System) dispatch(cd *callDesc, svc *Service, st *callStripe, h Handler, args *Args, program uint32, async bool) error {
	if cap(cd.scratch) < svc.scratchBytes {
		growScratch(cd, svc.scratchBytes)
	}
	cd.scratch = cd.scratch[:svc.scratchBytes]
	ctx := &cd.ctx
	ctx.sys = s
	ctx.svc = svc
	ctx.cd = cd
	ctx.CallerProgram = program
	ctx.async = async
	// Capture attached payload descriptors before the handler can touch
	// the argument words; every exit below settles the captured leases.
	// The no-payload warm path pays one masked load here and one
	// predictable branch per exit.
	npay := capturePayloads(args, &ctx.pay)

	if svc.authorize != nil && !svc.authorize(program) {
		return cd.deny(st, args, npay, async)
	}
	// First call serviced on this shard runs the init handler instead
	// (one-time shard-local setup, §4.5.3); it is expected to handle
	// the request too, typically by ending with the steady-state
	// handler. Once claimed the check is a load, not a failing CAS.
	if svc.initHandler != nil && !svc.perShard[cd.shard.id].inited.Load() && svc.claimInit(cd.shard.id) {
		h = svc.initHandler
	}
	// A panicking handler aborts this call only — the worker isolation
	// of the paper's §2: the exception is delivered to the caller as an
	// error, and the service stays up.
	if fault := runIsolated(s, h, ctx, args); fault != nil {
		return cd.abort(st, args, npay, async, faultError(fault))
	}
	if npay != 0 {
		cd.shard.releasePayloads(args, &ctx.pay)
	}
	return nil
}

// claimInit elects the call that runs the init handler on a shard.
//
//ppc:coldpath -- once per (service, shard)
func (s *Service) claimInit(shardID int) bool {
	return s.perShard[shardID].inited.CompareAndSwap(false, true)
}

// deny fails a call the authorization hook rejected. The conventional
// failure RC is masked off the payload-count bits (payload.go): a
// denied block must not read as carrying segments when reused.
//
//ppc:coldpath -- the call is failing
func (cd *callDesc) deny(st *callStripe, args *Args, npay int, async bool) error {
	st.authFail.Add(1)
	args.SetRC(uint64(^uint32(0)) &^ payloadCountMask)
	return cd.abort(st, args, npay, async, ErrPermissionDenied)
}

// abort settles a dispatch whose handler did not return normally: the
// captured leases, and for a synchronous call the unreturned count that
// takes its coming completion back out of Service.Calls.
//
//ppc:coldpath -- the call is failing
func (cd *callDesc) abort(st *callStripe, args *Args, npay int, async bool, err error) error {
	if npay != 0 {
		cd.shard.releasePayloads(args, &cd.ctx.pay)
	}
	if !async {
		st.unreturned.Add(1)
	}
	return err
}
