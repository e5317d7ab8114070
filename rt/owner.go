package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Domain death: the ownership record and the reclaim of what a dead
// client held.
//
// The paper's LRPC lineage requires the kernel to recover cleanly when
// a protection domain dies mid-call; rt's analogue is a client
// goroutine that panics, leaks, or is explicitly abandoned while it
// still owns resources — a held call descriptor, arena payload leases,
// staged batch entries, a half-open health probe.
// Without reclamation each of those is stranded forever. This file
// gives every client an *ownership record* with a slot for each such
// holding, and has whoever declares the client dead empty the slots.
//
// # The ownership record
//
// Each client gets a clientRec at construction. The record holds the
// client's reclaimable holdings, each in a slot of its own: the held
// descriptor (cd) and a carried half-open probe (probe), filled on cold
// paths only (Hold, a probe's election), and the payload leases no
// submission has taken yet in its lease slots. The record deliberately
// does NOT reference the Client — not directly and not through anything
// it holds — so runtime.AddCleanup can fire when the Client itself
// leaks. Nothing lists the records: a client that is not enrolled in
// liveness epochs is created without taking a lock, and its record is
// garbage when the client is.
//
// # Holdings change hands by exchange
//
// A slot is one atomic word holding the descriptor, a PayloadRef or the
// probe's table entry, or zero. Only the slot's client ever fills it.
// The rule is an exchange: whichever party takes the nonzero value out
// of the slot owns the holding and settles it, so each holding is
// settled exactly once whoever gets there first.
//
//	owner, new holding  slot.Store(v); then load the life state  (Hold, trackLease)
//	owner, hand-back    slot.CAS(v, 0)   (Release; ReleasePayload; a submission's claim per attached ref)
//	death               the life state is already dead; slot.Swap(0) on every slot  (reap)
//
// Filling a slot is one half of a Dekker pair with death: the owner
// stores the slot and then loads the life state; death stores the state
// and then swaps every slot, all sequentially consistent. Either the
// owner's load sees the client dead — it takes its own value back with
// the hand-back CAS, if the reap has not, and fails with
// ErrClientAbandoned — or the state store comes after that load, so
// after the slot store, and the reap's swap finds the value. One step on
// one word only its client fills: there is no look-up for a generation
// or an identity to defend.
//
// What settling means differs by holding. A descriptor the owner takes
// back goes to the pool; one the reap takes is *condemned*, never
// repooled — no call path touches the slot (Call checks the life state
// on entry and exit, two loads of a read-mostly line, and a deadline
// call does not run on the client's descriptor at all, deadline.go), so
// a plain call may still be running on it — and the pool is compensated
// with a fresh descriptor. The condemned one is in no pool, can never be
// handed to another client, and becomes garbage when the handler
// returns; that call's exit finds the client dead and the slot empty,
// counts a tombstoned completion and walks away. A lease is released to
// the arena by whoever took it. A claim lost on a dead client fails the
// submission with ErrClientAbandoned, releasing only what it did win; a
// claim lost on a live client means the ref was never this client's to
// track (a handler's Ctx.AllocPayload) and is ignored. Requests staged
// in a Batch keep their leases in the slots until Flush claims them, so
// staging touches no shared word. Lease slots come in line-sized
// blocks — seven and a link, published like a slot — the first inline in
// the record, the rest appended and kept when a client holds more at
// once. A probe is filed by the call that won it (shard.enter) and needs
// no life check: that call always comes back and empties the slot itself
// (probeDone). One the reap takes first goes back to the gate as
// degraded, so the stripe is never wedged shedding behind a probe that
// will never report; the gate leaves half-open by CAS, so the call
// settling it as well is no second settlement.
//
// # Death
//
// A client is declared dead three ways: explicitly (Client.Abandon, from
// any goroutine, the client's own handler included), by the
// runtime.AddCleanup backstop when a leaked Client is collected, or by
// missing its liveness-epoch budget on the shard tick (opt-in,
// ClientOptions.LivenessEpochs). All three are clientRec.die: the
// live->dead CAS, and on the goroutine that won it — there is exactly
// one — the reap: swap the descriptor slot, every lease slot and the
// probe slot empty and settle what came out. The reclaim has happened
// when the declaration returns, on an open System or a closed one, and
// depends on no helper goroutine. One reaper and nothing but exchanges:
// the reap takes no lock, keeps no list of the dead and has nothing to
// retry. It does not wait for the client either, whatever call it is
// inside: a call in flight owns what it took at entry and settles it
// itself, and a holding the owner files behind the reap is the owner's
// to take back — its life-state load after the store sees the death.

// Client record life states (clientRec.state).
const (
	crLive uint32 = iota // normal operation
	crDead               // declared dead: reaped, or being reaped by the declarer
)

// recLeaseSlots is the slot count of one lease block: with the link,
// exactly one cache line.
const recLeaseSlots = 7

// leaseBlock is one line of lease slots (see the file comment) and the
// link to the next block of the chain.
type leaseBlock struct {
	slots [recLeaseSlots]atomic.Uint64
	//ppc:atomic
	next atomic.Pointer[leaseBlock]
}

// clientRec is one client's ownership record. It holds no reference to
// the Client (the AddCleanup backstop depends on that) and a slot for
// every reclaimable holding. Three lines: what every call reads, the cold
// slots, and the first lease block.
//
//ppc:padded
type clientRec struct {
	epochs uint64 // liveness budget in tick epochs; 0 = not enrolled
	reg    *clientRegistry

	// state is the life state (crLive/crDead).
	//
	//ppc:atomic
	state atomic.Uint32
	// beat is the last registry epoch the client stamped (liveness
	// opt-in only; see ClientOptions.LivenessEpochs).
	//
	//ppc:atomic
	beat atomic.Uint64
	_    [32]byte // fill the line every call reads: the slots below are written cold

	// cd is the slot of the held descriptor — Client.held is the owner's
	// plain copy of it — filled by Hold and emptied by Release, by the dead
	// owner or by the reap, whichever exchange gets there first.
	//
	//ppc:atomic
	cd atomic.Pointer[callDesc]
	// probe is the half-open probe the client's current call carries, as
	// the table entry of the service whose gate it is (set by enter,
	// cleared by the call's own settlement; observable only while the
	// client is mid-call or dead), so the reap can settle the gate if the
	// client dies with it.
	//
	//ppc:atomic
	probe atomic.Pointer[epEntry]
	_     [48]byte // fill the slot line: the lease block below owns its own

	// leases heads the chain of lease slots: the payload leases the
	// client has taken and no submission has claimed yet.
	//
	//ppc:hotline
	leases leaseBlock
}

// clientRegistry is one shard's share of domain death: the liveness
// epoch and the clients enrolled in it, and the death counters. Reached
// by pointer from the shard (no shard-layout churn); everything here is
// cold.
type clientRegistry struct {
	sys *System
	sh  *shard

	// epoch is the liveness epoch, advanced once per tick while any
	// client is enrolled.
	//
	//ppc:atomic
	epoch atomic.Uint64

	// Domain-death counters (ShardStats).
	abandoned  atomic.Int64 // clients declared dead (all three modes)
	scavCDs    atomic.Int64 // held CDs condemned by a reap
	scavLeases atomic.Int64 // payload leases released by a reap
	tombstoned atomic.Int64 // completions that found their client dead at exit

	// mu guards enrolled, the records of the clients enrolled in liveness
	// epochs (register and the tick — both cold). Dead ones are dropped by
	// the tick's next pass.
	mu       sync.Mutex
	enrolled []*clientRec
}

// newClientRegistry builds a shard's registry (shard construction).
//
//ppc:coldpath -- shard construction
func newClientRegistry(sys *System, sh *shard) *clientRegistry {
	return &clientRegistry{sys: sys, sh: sh}
}

// register creates the ownership record for a new client, enrolls it in
// liveness epochs if asked, and arms the AddCleanup backstop on c.
//
//ppc:coldpath -- client construction
func (reg *clientRegistry) register(c *Client, epochs int) *clientRec {
	rec := &clientRec{reg: reg}
	if epochs > 0 {
		rec.epochs = uint64(epochs)
		rec.beat.Store(reg.epoch.Load())
		reg.mu.Lock()
		reg.enrolled = append(reg.enrolled, rec)
		reg.mu.Unlock()
		// Liveness needs the epoch advancing: make sure the tick loop is
		// running even on a sync-only system that never armed a deadline.
		if !reg.sh.closed.Load() {
			reg.sh.startTick(reg.sys)
		}
	}
	// Backstop: a Client that leaks with resources still owned is
	// declared dead when the GC proves no goroutine can ever use it
	// again — the strongest possible "domain death" evidence. The
	// cleanup must not reference c itself (it would never fire).
	runtime.AddCleanup(c, cleanupClient, rec)
	return rec
}

// cleanupClient is the runtime.AddCleanup backstop: the Client leaked.
// A clean record (nothing held, nothing enrolled) is marked dead and
// counted nowhere — an ordinary released client was collected; a record
// with holdings is declared dead like any other, and so reclaimed here,
// on the cleanup goroutine: a program that leaked its clients may well
// have leaked the System too, and there may be no tick to defer to.
//
//ppc:coldpath -- GC cleanup of a leaked client
func cleanupClient(rec *clientRec) {
	if rec.cd.Load() == nil && rec.epochs == 0 && !rec.holdsLeases() {
		rec.state.CompareAndSwap(crLive, crDead)
		return
	}
	rec.die()
}

// die declares the client dead — every death mode goes through it — and,
// on the one goroutine whose live->dead CAS wins, counts the death and
// reaps the record before it returns. Reports whether this call was that
// one. No lock: the CAS elects the reaper and every step of the reap is an
// exchange.
//
//ppc:coldpath -- domain death
func (rec *clientRec) die() bool {
	if !rec.state.CompareAndSwap(crLive, crDead) {
		return false
	}
	rec.reg.abandoned.Add(1)
	rec.reap()
	return true
}

// Abandon declares the client's domain dead and reclaims every resource
// it owns — held descriptor, payload leases, staged batch entries,
// carried probe — before it returns, on the caller's goroutine, whether
// the System is open or closed. Abandon may be called from any goroutine
// (it is the one cross-goroutine entry point on a Client), the client's
// own handler included: a call in flight on the owning goroutine
// completes normally on its descriptor, which is condemned rather than
// repooled, and settles what it took at entry itself; every later
// operation on the client fails with ErrClientAbandoned. Abandon is
// idempotent.
//
//ppc:coldpath -- domain death
func (c *Client) Abandon() { c.rec.die() }

// Abandoned reports whether the client has been declared dead.
func (c *Client) Abandoned() bool { return c.rec.state.Load() != crLive }

// publishLease files a fresh lease in the first empty slot with one
// atomic store. The caller owes the life-state load that completes the
// Dekker pair (trackLease).
//
//ppc:hotpath
func (rec *clientRec) publishLease(ref PayloadRef) *atomic.Uint64 {
	b := &rec.leases
	for {
		for i := range b.slots {
			if b.slots[i].Load() == 0 {
				b.slots[i].Store(uint64(ref))
				return &b.slots[i]
			}
		}
		next := b.next.Load()
		if next == nil {
			return b.spill(ref)
		}
		b = next
	}
}

// spill appends a block carrying ref to a full chain, for the client's
// lifetime: a client that works with many leases allocates it once.
//
//ppc:coldpath -- every block of the chain is full
func (b *leaseBlock) spill(ref PayloadRef) *atomic.Uint64 {
	nb := new(leaseBlock)
	nb.slots[0].Store(uint64(ref))
	b.next.Store(nb)
	return &nb.slots[0]
}

// claimLease takes ref out of its slot for a submission (or
// ReleasePayload): true means the caller now owns the lease, false that
// ref was never filed here or a reap got to the slot first.
//
//ppc:hotpath
func (rec *clientRec) claimLease(ref PayloadRef) bool {
	for b := &rec.leases; b != nil; b = b.next.Load() {
		for i := range b.slots {
			if b.slots[i].Load() == uint64(ref) {
				return b.slots[i].CompareAndSwap(uint64(ref), 0)
			}
		}
	}
	return false
}

// holdsLeases reports whether any slot is occupied.
func (rec *clientRec) holdsLeases() bool {
	for b := &rec.leases; b != nil; b = b.next.Load() {
		for i := range b.slots {
			if b.slots[i].Load() != 0 {
				return true
			}
		}
	}
	return false
}

// trackLease files a lease the client just took on its ownership
// record, where it stays until a submission claims it, so the reap can
// settle it if the client dies first: one store, then the life check. An
// abandoned client cannot lease at all.
//
//ppc:hotpath
func (c *Client) trackLease(ref PayloadRef) error {
	slot := c.rec.publishLease(ref)
	if c.rec.state.Load() != crLive {
		return c.retractLease(slot, ref)
	}
	return nil
}

// retractLease is trackLease on a dead client: take the ref back out of
// the slot unless the reap already has, and fail.
//
//ppc:coldpath -- the client was abandoned
func (c *Client) retractLease(slot *atomic.Uint64, ref PayloadRef) error {
	if slot.CompareAndSwap(uint64(ref), 0) {
		c.shard.arena.release(ref)
	}
	return ErrClientAbandoned
}

// consumeArgs claims every payload ref attached to args: the submission
// the caller is about to make owns them from here, whatever its
// outcome. A claim lost on a dead client means the reap has (or will
// have) released that lease; the call must not run, and the refs it did
// take are released here.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (c *Client) consumeArgs(args *Args) error {
	n := payloadCount(args[OpFlagsWord])
	for i := 0; i < n; i++ {
		if !c.rec.claimLease(PayloadRef(args[payloadWord(i)])) && c.rec.state.Load() != crLive {
			return c.claimLost(args, i)
		}
	}
	return nil
}

// claimLost fails a submission whose claim of segment lost lost to the
// reap: the segments before it are this submission's and are released,
// the rest are the reap's, and args is stripped so nothing releases any
// of them again.
//
//ppc:coldpath -- the client was abandoned
func (c *Client) claimLost(args *Args, lost int) error {
	for i := 0; i < lost; i++ {
		c.shard.arena.release(PayloadRef(args[payloadWord(i)]))
	}
	args[OpFlagsWord] &^= payloadCountMask
	return ErrClientAbandoned
}

// setProbe publishes the probe the client's current call carries. Cold:
// winning a half-open election is by definition off the healthy path.
//
//ppc:coldpath -- half-open probe bookkeeping
func (rec *clientRec) setProbe(e *epEntry) { rec.probe.Store(e) }

// beatTick stamps the client's liveness beat (epoch-enrolled clients
// only): the one plain store the warm path pays for liveness.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (c *Client) beatTick() {
	c.rec.beat.Store(c.rec.reg.epoch.Load())
}

// livenessTick is the tick's share of domain death: advance the liveness
// epoch and declare dead — which reaps it, here — every enrolled client
// that has not stamped a beat for its whole budget of epochs, the
// in-process analogue of a missed heartbeat across /dev/shm. Records no
// longer live are dropped from the list in place. With nobody enrolled it
// is one uncontended lock: the tick walks nothing for the other clients.
//
//ppc:coldpath -- shard tick work, off every call path
func (sh *shard) livenessTick() {
	reg := sh.reg
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if len(reg.enrolled) == 0 {
		return
	}
	epoch := reg.epoch.Add(1)
	live := reg.enrolled[:0]
	for _, rec := range reg.enrolled {
		switch {
		case rec.state.Load() != crLive:
		case epoch-rec.beat.Load() > rec.epochs:
			rec.die()
		default:
			live = append(live, rec)
		}
	}
	clear(reg.enrolled[len(live):])
	reg.enrolled = live
}

// reap empties a dead record — the three exchanges — and settles what
// comes out. Called once per record, by the goroutine whose CAS declared
// the death (die).
//
//ppc:coldpath -- domain-death reclamation
func (rec *clientRec) reap() {
	reg, sh := rec.reg, rec.reg.sh
	if faultTagEnabled {
		// A stall site: a hook that sleeps stretches the window in which the
		// client is declared dead and nothing of it is reclaimed yet.
		_ = reg.sys.fireFault(faultSiteScavenge)
	}
	// 1. The held descriptor is condemned, not repooled: no call path
	// touches the slot, so a plain call may still be running on the
	// descriptor right now. The pool is compensated with a fresh one on the
	// condemned one's table slot, and the condemned one becomes garbage once
	// the handler (if any) returns. An empty slot: the owner's Release or
	// its own dead exit settled it.
	if cd := rec.cd.Swap(nil); cd != nil {
		sh.heldCDs.Add(-1)
		sh.pushCD(sh.newCD(cd))
		reg.scavCDs.Add(1)
	}
	// 2. The lease slots: every ref this swap takes out is the reap's to
	// release. A slot the owner fills behind the walk is the owner's
	// again — its life check after the store sees the death.
	var n int64
	for b := &rec.leases; b != nil; b = b.next.Load() {
		for i := range b.slots {
			if ref := b.slots[i].Swap(0); ref != 0 {
				sh.arena.release(PayloadRef(ref))
				n++
			}
		}
	}
	reg.scavLeases.Add(n)
	// 3. A carried half-open probe: settle the gate back to degraded so
	// the stripe is never wedged shedding behind a probe that will never
	// report.
	if p := rec.probe.Swap(nil); p != nil {
		p.svc.gateReopen(p.counters)
	}
}

// tombstoneExit is the dead owner's completion path: Call's exit life
// check came back dead. The completion landed in a tombstone: counted,
// and the descriptor settled as any dead owner's is (dropDeadHold).
//
//ppc:coldpath -- the client was abandoned mid-call
func (c *Client) tombstoneExit() {
	c.rec.reg.tombstoned.Add(1)
	c.dropDeadHold()
}

// own is the ownership entry of Call, the one path that runs on the
// client's held descriptor: take a descriptor if none is held — Hold
// declines on a dead client — then one load of the record's life state,
// a read-mostly line written once at death, and the liveness beat of an
// enrolled client. No call touches the descriptor's slot (see the file
// comment), so the warm call pays no RMW here.
//
//ppc:hotpath
func (c *Client) own(args *Args) error {
	if c.held == nil {
		c.Hold()
	}
	if c.held == nil || c.rec.state.Load() != crLive {
		return c.ownerLost(one(args))
	}
	if c.rec.epochs != 0 {
		c.beatTick()
	}
	return nil
}

// ownerLost is the dead owner's entry path: a life check (preflight's or
// own's) found the client dead. Settle the submission's payload leases
// (the claim transferred them to it) and what the client holds, and fail.
//
//ppc:coldpath -- the client was abandoned before this call
func (c *Client) ownerLost(argss []Args) error {
	c.shard.releaseBatchPayloads(argss)
	c.dropDeadHold()
	return ErrClientAbandoned
}

// dropDeadHold settles a dead client's held descriptor from the owner's
// side: the hand-back exchange, which repools the descriptor unless the
// reap already took it out of the slot and condemned it.
//
//ppc:coldpath -- the client was abandoned
func (c *Client) dropDeadHold() {
	if cd := c.held; cd != nil {
		c.held = nil
		if c.rec.cd.CompareAndSwap(cd, nil) {
			c.shard.releaseCD(cd)
		}
	}
}
