package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Domain-death protocol: ownership epochs and the abandoned-client
// scavenger.
//
// The paper's LRPC lineage requires the kernel to recover cleanly when
// a protection domain dies mid-call; rt's analogue is a client
// goroutine that panics, leaks, or is explicitly abandoned while it
// still owns resources — a held call descriptor, arena payload leases,
// staged batch entries, a half-open health probe.
// Without reclamation each of those is stranded forever. This file
// gives every client an *ownership record* and rides a scavenger pass
// on the existing watchdog tick to reclaim what dead clients left
// behind.
//
// # The ownership word
//
// Every held call descriptor carries a packed, gen-tagged ownership
// word (callDesc.owner):
//
//	bits 63..32  gen    (transition counter; tags every CAS)
//	bits 31..3   owner  (low 29 bits of the owning client's program ID)
//	bits  2..0   state  (owFree / owHeld / owDead)
//
// The layout is offset-stable and pointer-free by construction — the
// same word works in an mmap'd shared segment, which is exactly the
// "epoch/ownership words for crash-safe reclaim" ROADMAP item 1 calls
// for. The in-process protocol proven here is the pre-work for that
// cross-process variant.
//
// Transitions:
//
//	Hold       owner := gen+1|id|owHeld     (plain store; fresh gen)
//	Release    CAS  owHeld -> owFree        (fails: scavenger got it first)
//	Scavenge   CAS  owHeld -> owDead, gen+1 (condemn)
//	Tombstone  CAS  owHeld -> owDead, gen+1 (the dead owner's own exit)
//
// Three states, and the word moves only at Hold, Release and death: NO
// call path transitions it. Call checks the record's life state on entry
// and exit (two loads of a read-mostly line) and the word stays owHeld
// for the whole hold — the warm path pays no RMW and no store (one
// optional beat store for epoch-enrolled clients). A deadline call does
// not run on the client's descriptor at all (deadline.go), so the word
// of a client that mixes the two paths never moves either, and a client
// that dies inside one holds nothing more than one that dies inside a
// plain Call. What makes the untouched word safe is that
// the scavenger *condemns* rather than repools: its owHeld->owDead CAS
// bumps the generation — so the dead owner's tombstone and Release
// CASes, tagged with the generation they held, must fail — and the pool
// is compensated with a FRESH descriptor. A plain call that was secretly
// in flight during the condemnation keeps running on the condemned
// descriptor, which is in no pool and becomes garbage when the handler
// returns; it can never be handed to another client.
//
// On the exit side the owner re-checks its record's life state after
// the handler returns; if it died mid-call, the completion goes down the
// tombstone path — CAS owHeld->owDead — and whichever party wins that
// CAS (the completing owner pushing the descriptor itself, or the
// scavenger compensating with a fresh one) performs the reclaim exactly
// once. A completion that loses simply walks away: it landed in a
// tombstone instead of a reclaimed descriptor. Both outcomes count in
// TombstonedCompletions.
//
// # The ownership record
//
// Each client registers a clientRec on its shard's registry at
// construction. The record mirrors the client's reclaimable holdings:
// the held descriptor and a carried half-open probe through cold-path
// writes (Hold/Release, a probe's election and settlement), and the
// payload leases no submission has taken yet in its lease slots. The
// record deliberately does NOT reference the Client — not directly and
// not through anything it lists — so runtime.AddCleanup can fire when
// the Client itself leaks.
//
// # Lease slots
//
// A lease slot is one atomic word holding a PayloadRef, or zero. The
// rule is an exchange: whichever party takes the nonzero ref out of the
// slot owns the lease and releases it, so each lease is settled exactly
// once whoever gets there first.
//
//	owner, new lease   slot.Store(ref); then load the life state
//	owner, submission  slot.CAS(ref, 0) per attached ref (Call, Flush, ...)
//	owner, abort       slot.CAS(ref, 0)  (ReleasePayload)
//	scavenger          life state is already dead; slot.Swap(0) on every slot
//
// Publishing is one half of a Dekker pair with death: the owner stores
// the slot and then loads the life state; death stores the state and
// the scavenger then swaps every slot, all sequentially consistent.
// Either the owner's load sees the client dead — it takes its own ref
// back with the CAS a submission uses, if the scavenger has not, and
// returns ErrClientAbandoned — or the state store comes after that
// load, so after the slot store, and the scavenger's swap finds the
// ref. A claim lost on a dead client fails the submission with
// ErrClientAbandoned, releasing only what it did win; a claim lost on a
// live client means the ref was never this client's to track (a
// handler's Ctx.AllocPayload) and is ignored. Requests staged in a
// Batch keep their leases in the slots until Flush claims them, so
// staging touches no shared word. Slots come in line-sized blocks —
// seven and a link, published like a slot — the first inline in the
// record, the rest appended and kept when a client holds more at once.
// Hold publishes the descriptor mirror the same way: store rec.cd, load
// the life state, settle through the ownership CAS if it reads dead.
//
// # Death and the scavenger
//
// A client is declared dead three ways: explicitly (Client.Abandon), by
// the runtime.AddCleanup backstop when a leaked Client is collected, or
// by missing its liveness-epoch budget (opt-in,
// ClientOptions.LivenessEpochs). The scavenger runs on the watchdog
// tick, guarded by one registry load per tick when nothing is dead; per
// dead client (scavengeOne) it condemns the held CD through the
// ownership CAS above, compensating the pool with a fresh descriptor,
// swaps every lease slot empty and releases what it took, settles a
// carried half-open probe back to degraded so the gate is never wedged,
// and reaps the record — at once, whatever call the client is inside: a
// call in flight owns what it took at entry and settles it itself. A
// holding the owner publishes behind the walk is the owner's to settle:
// its life-state load after the publish sees the death.

// Ownership word states (bits 2..0 of callDesc.owner).
const (
	owFree uint64 = iota // pooled / released: no client owns the CD
	owHeld               // held by a client (a plain call may be in flight)
	owDead               // tombstone: condemned/reclaimed from a dead client
)

// Ownership word packing.
const (
	ownerStateMask = uint64(7)
	ownerIDShift   = 3
	ownerIDBits    = 29
	ownerIDMask    = (1<<ownerIDBits - 1) << ownerIDShift
	ownerGenShift  = 32
)

// packOwner builds an ownership word. The id is truncated to 29 bits;
// the gen tag is what makes a truncation collision harmless (a stale
// CAS still fails on the gen).
//
//ppc:hotpath
func packOwner(gen uint64, id uint32, state uint64) uint64 {
	return gen<<ownerGenShift | uint64(id)<<ownerIDShift&ownerIDMask | state
}

func ownerGen(w uint64) uint64   { return w >> ownerGenShift }
func ownerState(w uint64) uint64 { return w & ownerStateMask }

// ownerIs reports whether w names client id (masked comparison).
func ownerIs(w uint64, id uint32) bool {
	return w&ownerIDMask == uint64(id)<<ownerIDShift&ownerIDMask
}

// Client record life states (clientRec.state).
const (
	crLive   uint32 = iota // normal operation
	crDead                 // declared dead; awaiting the scavenger
	crReaped               // fully scavenged and unregistered
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

// clientRec is one client's ownership record. It lives on the shard
// registry, holds no reference to the Client (the AddCleanup backstop
// depends on that), and mirrors every reclaimable holding. Three lines:
// what every call reads, the cold mirrors, and the first lease block.
//
//ppc:padded
type clientRec struct {
	id     uint32 // the client's program ID (also the ownership-word id)
	epochs uint64 // liveness budget in scavenger ticks; 0 = not enrolled
	reg    *clientRegistry

	// state is the life state (crLive/crDead/crReaped).
	//
	//ppc:atomic
	state atomic.Uint32
	// beat is the last registry epoch the client stamped (liveness
	// opt-in only; see ClientOptions.LivenessEpochs).
	//
	//ppc:atomic
	beat atomic.Uint64
	_    [24]byte

	// cd mirrors Client.held (written on Hold/Release — both cold). The
	// ownership word on the descriptor itself arbitrates reclamation;
	// this mirror only tells the scavenger where to look.
	//
	//ppc:atomic
	cd atomic.Pointer[callDesc]
	// probe is the half-open probe the client's current call carries, as
	// the table entry of the service whose gate it is (set by enter,
	// cleared by the call's own settlement; observable only while the
	// client is mid-call or dead), so the scavenger can settle the gate
	// if the client dies with it.
	//
	//ppc:atomic
	probe atomic.Pointer[epEntry]

	idx int // position in registry.recs; maintained under registry.mu
	_   [40]byte

	// leases heads the chain of lease slots: the payload leases the
	// client has taken and no submission has claimed yet.
	//
	//ppc:hotline
	leases leaseBlock
}

// clientRegistry is one shard's client-ownership registry. Reached by
// pointer from the shard (no shard-layout churn); the per-tick guard is
// two atomic loads, everything else is cold.
type clientRegistry struct {
	sys *System
	sh  *shard

	// epoch is the liveness epoch, advanced once per scavenger pass
	// while any epoch-enrolled client is registered.
	//
	//ppc:atomic
	epoch atomic.Uint64
	// dead counts declared-dead, not-yet-reaped clients — the per-tick
	// scavenge guard.
	//
	//ppc:atomic
	dead atomic.Int64
	// epochClients counts live clients enrolled in liveness epochs.
	//
	//ppc:atomic
	epochClients atomic.Int64

	// Domain-death counters (ShardStats).
	abandoned  atomic.Int64 // clients declared dead (all three modes)
	scavCDs    atomic.Int64 // held CDs reclaimed by the scavenger
	scavLeases atomic.Int64 // payload leases released by the scavenger
	tombstoned atomic.Int64 // completions settled through the tombstone CAS

	// mu guards recs (register, unregister, and the scavenge walk — all
	// cold).
	mu   sync.Mutex
	recs []*clientRec
}

// newClientRegistry builds a shard's registry (shard construction).
//
//ppc:coldpath -- shard construction
func newClientRegistry(sys *System, sh *shard) *clientRegistry {
	return &clientRegistry{sys: sys, sh: sh}
}

// register creates and files the ownership record for a new client and
// arms the AddCleanup backstop on c.
//
//ppc:coldpath -- client construction
func (reg *clientRegistry) register(c *Client, epochs int) *clientRec {
	rec := &clientRec{id: c.program, reg: reg}
	if epochs > 0 {
		rec.epochs = uint64(epochs)
		rec.beat.Store(reg.epoch.Load())
		reg.epochClients.Add(1)
		// Liveness needs the epoch advancing: make sure the tick loop is
		// running even on a sync-only system that never armed a deadline.
		if !reg.sh.closed.Load() {
			reg.sh.startTick(reg.sys)
		}
	}
	reg.mu.Lock()
	rec.idx = len(reg.recs)
	reg.recs = append(reg.recs, rec)
	reg.mu.Unlock()
	// Backstop: a Client that leaks with resources still owned is
	// declared dead when the GC proves no goroutine can ever use it
	// again — the strongest possible "domain death" evidence. The
	// cleanup must not reference c itself (it would never fire).
	runtime.AddCleanup(c, cleanupClient, rec)
	return rec
}

// unregister removes a reaped record from the walk list.
func (reg *clientRegistry) unregister(rec *clientRec) {
	reg.mu.Lock()
	reg.unfile(rec)
	reg.mu.Unlock()
}

// unfile swap-deletes rec from the walk list. Caller holds reg.mu.
func (reg *clientRegistry) unfile(rec *clientRec) {
	if i := rec.idx; i >= 0 && i < len(reg.recs) && reg.recs[i] == rec {
		last := len(reg.recs) - 1
		reg.recs[i] = reg.recs[last]
		reg.recs[i].idx = i
		reg.recs[last] = nil
		reg.recs = reg.recs[:last]
		rec.idx = -1
	}
}

// cleanupClient is the runtime.AddCleanup backstop: the Client leaked.
// A clean record (nothing held, nothing enrolled) is quietly
// unregistered; a record with holdings is declared dead and reclaimed
// inline on the cleanup goroutine. Inline — not via the watchdog —
// because the GC just proved the client unreachable: no owner op can
// race; and a program that leaked its clients may well have leaked the
// System too, in which case a woken watchdog would tick forever.
//
//ppc:coldpath -- GC cleanup of a leaked client
func cleanupClient(rec *clientRec) {
	if rec.state.Load() != crLive {
		return // already dead or reaped
	}
	if rec.cd.Load() == nil && rec.epochs == 0 && !rec.holdsLeases() {
		// Nothing to reclaim: an ordinary released client was collected.
		if rec.state.CompareAndSwap(crLive, crReaped) {
			rec.reg.unregister(rec)
		}
		return
	}
	reg := rec.reg
	if !rec.die() {
		return
	}
	// Only an injected scavenge fault (chaos builds) defers the inline
	// reap; only then hand the record to a watchdog, and only on an open
	// shard (nothing but a deadline executor starts a tick after Close).
	if !reg.reapNow(rec) && !reg.sh.closed.Load() {
		reg.sh.startTick(reg.sys)
	}
}

// reapNow scavenges one dead record outside the watchdog tick — the
// cleanup backstop's inline path. Serialized against the tick walk by
// reg.mu; the ownership CAS and the slot swaps make a concurrent
// watchdog pass over the same record settle exactly once.
//
//ppc:coldpath -- GC cleanup of a leaked client
func (reg *clientRegistry) reapNow(rec *clientRec) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if rec.state.Load() != crDead || !reg.scavengeOne(rec) {
		return false
	}
	reg.unfile(rec)
	return true
}

// die is the death transition, live->dead, and its accounting; every
// death mode goes through it. Reports whether this call made it.
func (rec *clientRec) die() bool {
	if !rec.state.CompareAndSwap(crLive, crDead) {
		return false
	}
	rec.reg.abandoned.Add(1)
	rec.reg.dead.Add(1)
	return true
}

// declareDead moves a record live->dead and wakes the scavenger's
// watchdog. Idempotent; returns whether this call made the transition.
//
//ppc:coldpath -- domain death
func (rec *clientRec) declareDead() bool {
	if !rec.die() {
		return false
	}
	reg := rec.reg
	// The scavenger rides the watchdog; make sure one is ticking (a
	// sync-only system may never have spawned it). A closed shard starts
	// none: a tick still draining reaps the client, else the System's end does.
	if !reg.sh.closed.Load() {
		reg.sh.startTick(reg.sys)
	}
	return true
}

// Abandon declares the client's domain dead: every resource it owns —
// held descriptor, payload leases, staged batch entries, carried
// probe — is reclaimed by the shard's scavenger on an upcoming
// watchdog tick. Abandon may be called from
// any goroutine (it is the one cross-goroutine entry point on a
// Client): a call in flight on the owning goroutine completes normally
// and settles itself through the tombstone protocol; every later
// operation on the client fails with ErrClientAbandoned. Abandon is
// idempotent.
//
//ppc:coldpath -- domain death
func (c *Client) Abandon() { c.rec.declareDead() }

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
// ref was never filed here or the scavenger got to the slot first.
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
// record, where it stays until a submission claims it, so the scavenger
// can settle it if the client dies first: one store, then the life
// check. An abandoned client cannot lease at all.
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
// the slot unless the scavenger already has, and fail.
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
// outcome. A claim lost on a dead client means the scavenger has (or
// will have) released that lease; the call must not run, and the refs
// it did take are released here.
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
// scavenger: the segments before it are this submission's and are
// released, the rest are the scavenger's, and args is stripped so
// nothing releases any of them again.
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

// scavengeTick is the watchdog-tick entry point: advance the liveness
// epoch and reap dead clients. The nothing-to-do path — every tick on a
// healthy system — is at most two atomic loads.
//
//ppc:coldpath -- watchdog tick work, off every call path
func (sh *shard) scavengeTick(sys *System) {
	reg := sh.reg
	if reg == nil {
		return
	}
	if reg.epochClients.Load() == 0 && reg.dead.Load() == 0 {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var epoch uint64
	if reg.epochClients.Load() > 0 {
		epoch = reg.epoch.Add(1)
	}
	for i := 0; i < len(reg.recs); {
		rec := reg.recs[i]
		rec.markStale(epoch)
		if rec.state.Load() != crDead || !reg.scavengeOne(rec) {
			i++
			continue
		}
		reg.unfile(rec) // reaped; recs[i] is now the record swapped in
	}
}

// markStale declares a live epoch-enrolled client dead when it has not
// stamped a beat for its whole budget of scavenger epochs — the
// in-process analogue of a missed heartbeat across /dev/shm. epoch is
// zero when no client is enrolled (the epoch did not advance).
//
//ppc:coldpath -- watchdog tick work, off every call path
func (rec *clientRec) markStale(epoch uint64) {
	if epoch == 0 || rec.epochs == 0 || rec.state.Load() != crLive {
		return
	}
	if epoch-rec.beat.Load() > rec.epochs {
		rec.die()
	}
}

// scavengeOne reclaims one dead client's holdings. Returns true when
// the record is fully reaped; false defers the client to the next tick
// (an injected fault). Caller holds reg.mu.
//
//ppc:coldpath -- domain-death reclamation
func (reg *clientRegistry) scavengeOne(rec *clientRec) bool {
	if faultTagEnabled {
		if err := reg.sys.fireFault(FaultSiteScavenge); err != nil {
			return false // injected stall/error: retry next tick
		}
	}
	sh := reg.sh
	// 1. The held descriptor, arbitrated by the ownership word. owHeld is
	// condemned, not repooled: no call path transitions the word, so a
	// plain call may still be running on the descriptor right now.
	// Bumping the generation makes the owner's tombstone and Release
	// CASes fail, the pool is compensated with a fresh descriptor, and
	// the condemned one becomes garbage once the handler (if any)
	// returns. Any other state under this id, or a lost CAS: the owner's
	// own tombstone or Release settled it.
	if cd := rec.cd.Load(); cd != nil {
		w := cd.owner.Load()
		if ownerIs(w, rec.id) && ownerState(w) == owHeld &&
			cd.owner.CompareAndSwap(w, packOwner(ownerGen(w)+1, rec.id, owDead)) {
			sh.heldCDs.Add(-1)
			sh.pushCD(sh.newCD(0))
			reg.scavCDs.Add(1)
		}
		rec.cd.Store(nil)
	}
	// 2. The lease slots: every ref this swap takes out is this pass's to
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
	// 4. Reap.
	rec.state.Store(crReaped)
	if rec.epochs > 0 {
		reg.epochClients.Add(-1)
	}
	reg.dead.Add(-1)
	return true
}

// tombstoneExit is the dead owner's completion path: Call's exit life
// check came back dead while the word, untouched all along, still reads
// owHeld under this hold's generation — unless the scavenger already
// condemned it. The completion landed in a tombstone: counted, and the
// descriptor settled as any dead owner's is (dropDeadHold).
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
// enrolled client. No call transitions the ownership word (see the file
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
// side. The owner has transitioned nothing, so the word still reads
// owHeld under this hold's generation unless the scavenger already
// condemned it, and whichever of the two wins the CAS reclaims. Without
// the settle here the descriptor would be stranded: clearing rec.cd hides
// it from the scavenger's walk.
//
//ppc:coldpath -- the client was abandoned
func (c *Client) dropDeadHold() {
	if cd := c.held; cd != nil {
		if cd.owner.CompareAndSwap(c.owHeld, packOwner(ownerGen(c.owHeld)+1, c.program, owDead)) {
			c.shard.releaseCD(cd)
		}
		c.held = nil
	}
	c.rec.cd.Store(nil)
}
