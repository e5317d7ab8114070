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
// a deadline executor with its wheel node, staged batch entries, a
// half-open health probe. Without reclamation each of those is
// stranded forever. This file gives every client an *ownership record*
// and rides a scavenger pass on the existing watchdog tick to
// quarantine-then-reclaim what dead clients left behind.
//
// # The ownership word
//
// Every held call descriptor carries a packed, gen-tagged ownership
// word (callDesc.owner):
//
//	bits 63..32  gen    (transition counter; tags every CAS)
//	bits 31..3   owner  (low 29 bits of the owning client's program ID)
//	bits  2..0   state  (owFree / owHeld / owBusy / owDead)
//
// The layout is offset-stable and pointer-free by construction — the
// same word works in an mmap'd shared segment, which is exactly the
// "epoch/ownership words for crash-safe reclaim" ROADMAP item 1 calls
// for. The in-process protocol proven here is the pre-work for that
// cross-process variant.
//
// Transitions:
//
//	Hold            owner := gen+1|id|owHeld     (plain store; fresh gen)
//	Deadline entry  CAS  owHeld -> owBusy        (fails: client was reclaimed)
//	Deadline exit   store owBusy -> owHeld       (plain; only the owner writes)
//	Release         CAS  owHeld -> owFree        (fails: scavenger got it first)
//	Scavenge        CAS  owHeld -> owDead, gen+1 (condemn; never from owBusy)
//	Tombstone       CAS  owHeld -> owDead, gen+1 (the dead owner's own exit)
//
// The plain sync path transitions NOTHING: Call checks the record's
// life state on entry and exit (two loads of a read-mostly line) and
// the word stays owHeld for the whole hold — the warm path pays no RMW
// and no store (one optional beat store for epoch-enrolled clients).
// What makes that safe is that the scavenger *condemns* rather than
// repools: its owHeld->owDead CAS bumps the generation — so the dead
// owner's tombstone and Release CASes, tagged with the generation they
// held, must fail — and the pool is compensated with a FRESH
// descriptor. A plain call that was secretly in flight during the
// condemnation keeps running on the condemned descriptor, which is in
// no pool and becomes garbage when the handler returns; it can never
// be handed to another client. The deadline path does mark owBusy for
// its flight (its executor must not be retired mid-call), and the
// scavenger defers the whole client while it sees owBusy.
//
// The exit side is the PR 6 orphan-ack discipline inverted: the owner
// re-checks its record's life state after the handler returns; if it
// died mid-call, the completion goes down the tombstone path — CAS
// owHeld->owDead — and whichever party wins that CAS (the completing
// owner pushing the descriptor itself, or the scavenger compensating
// with a fresh one) performs the reclaim exactly once. A completion
// that loses simply walks away: it landed in a tombstone instead of a
// reclaimed descriptor. Both outcomes count in TombstonedCompletions.
//
// # The ownership record
//
// Each client registers a clientRec on its shard's registry at
// construction. The record mirrors the client's reclaimable holdings
// through cold-path writes only (Hold/Release/arm/orphan): the held
// descriptor, the deadline executor, unattached payload leases, live
// batches' staging buffers, and a carried half-open probe. The record
// deliberately does NOT reference the Client — not directly and not
// through anything it lists (hence batchStage, not Batch) — so
// runtime.AddCleanup can fire when the Client itself leaks.
//
// Record mutations from the owner (lease tracking, batch staging) and
// the scavenger's terminal drain are arbitrated by a tiny gate word:
// 0 idle, 1 owner-op in progress, 2 scavenged (terminal). An owner op
// that finds the gate terminal fails with ErrClientAbandoned; the
// scavenger finding an owner op in progress retries next tick.
//
// # Death and the scavenger
//
// A client is declared dead three ways: explicitly (Client.Abandon), by
// the runtime.AddCleanup backstop when a leaked Client is collected, or
// by missing its liveness-epoch budget (opt-in,
// ClientOptions.LivenessEpochs). The scavenger runs on the watchdog
// tick, guarded by one registry load per tick when nothing is dead; per
// dead client it (1) takes the record gate terminally, so no owner op
// can file a new holding behind the walk, (2) condemns the held CD
// through the ownership CAS above and compensates the pool with a
// fresh descriptor, (3) retires the deadline executor
// and unfiles its wheel node, (4) drains tracked leases and staged
// batch payloads back to the arena, (5) settles a carried half-open
// probe back to degraded so the gate is never wedged, and (6) reaps the
// record. Any step that observes the owner mid-flight defers the whole
// client to the next tick — quarantine-then-reclaim, never
// reclaim-in-place.

// Ownership word states (bits 2..0 of callDesc.owner).
const (
	owFree uint64 = iota // pooled / released: no client owns the CD
	owHeld               // held by a client (a plain call may be in flight)
	owBusy               // held and mid-deadline-call; reclaim must defer
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

// Record gate values (clientRec.gate).
const (
	recGateIdle      uint32 = 0 // no record op in progress
	recGateOwner     uint32 = 1 // the owning goroutine is mutating the record
	recGateScavenged uint32 = 2 // terminal: the scavenger owns the record
)

// recLeaseSlots is the inline capacity of the tracked-lease array;
// clients holding more unattached payload leases spill to a slice on a
// cold path.
const recLeaseSlots = 16

// probeRef names the half-open probe a client's in-flight call carries,
// so the scavenger can settle the gate if the client dies with it.
type probeRef struct {
	svc      *Service
	counters *shardCounters
}

// clientRec is one client's ownership record. It lives on the shard
// registry, holds no reference to the Client (the AddCleanup backstop
// depends on that), and mirrors every reclaimable holding through
// cold-path writes.
type clientRec struct {
	id     uint32 // the client's program ID (also the ownership-word id)
	epochs uint64 // liveness budget in scavenger ticks; 0 = not enrolled
	reg    *clientRegistry

	// state is the life state (crLive/crDead/crReaped).
	//
	//ppc:atomic
	state atomic.Uint32
	// gate arbitrates record mutation: owner ops CAS idle->owner, the
	// scavenger CASes idle->scavenged (terminal).
	//
	//ppc:atomic
	gate atomic.Uint32
	// beat is the last registry epoch the client stamped (liveness
	// opt-in only; see ClientOptions.LivenessEpochs).
	//
	//ppc:atomic
	beat atomic.Uint64
	// heldEpoch mirrors Client.heldEpoch for the scavenger's
	// repool-or-drop decision.
	//
	//ppc:atomic
	heldEpoch atomic.Uint64
	// cd mirrors Client.held (written on Hold/Release/orphaning — all
	// cold). The ownership word on the descriptor itself arbitrates
	// reclamation; this mirror only tells the scavenger where to look.
	//
	//ppc:atomic
	cd atomic.Pointer[callDesc]
	// dl mirrors Client.dl so the scavenger can retire an abandoned
	// deadline executor and unfile its wheel node.
	//
	//ppc:atomic
	dl atomic.Pointer[dlExec]
	// probe is the half-open probe the client's current call carries
	// (set and cleared inside the call paths; observable only while the
	// client is mid-call or dead).
	//
	//ppc:atomic
	probe atomic.Pointer[probeRef]

	// Gate-guarded plain state: the owner mutates these under
	// gate==recGateOwner; the scavenger drains them under terminal.
	nleases int
	leases  [recLeaseSlots]PayloadRef
	spill   []PayloadRef
	batches []*batchStage

	idx int // position in registry.recs; maintained under registry.mu
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
			reg.sh.ensureWatchdog(reg.sys)
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
	if i := rec.idx; i >= 0 && i < len(reg.recs) && reg.recs[i] == rec {
		last := len(reg.recs) - 1
		reg.recs[i] = reg.recs[last]
		reg.recs[i].idx = i
		reg.recs[last] = nil
		reg.recs = reg.recs[:last]
		rec.idx = -1
	}
	reg.mu.Unlock()
}

// cleanupClient is the runtime.AddCleanup backstop: the Client leaked.
// A clean record (nothing held, nothing enrolled) is quietly
// unregistered; a record with holdings is declared dead and reclaimed
// inline on the cleanup goroutine. Inline — not via the watchdog —
// because the GC just proved the client unreachable: no call can be in
// flight and no owner op can race, so the quarantine deferral the
// watchdog exists for cannot apply; and a program that leaked its
// clients may well have leaked the System too, in which case a woken
// watchdog would tick forever.
//
//ppc:coldpath -- GC cleanup of a leaked client
func cleanupClient(rec *clientRec) {
	if rec.state.Load() != crLive {
		return // already dead or reaped
	}
	if rec.cd.Load() == nil && rec.dl.Load() == nil && rec.epochs == 0 &&
		rec.nleases == 0 && len(rec.spill) == 0 && !rec.staged() {
		// Nothing to reclaim: an ordinary released client was collected.
		// (The plain reads are safe: no goroutine can reach the Client
		// anymore, so the only other toucher is the scavenger, which only
		// acts on dead records.)
		if rec.state.CompareAndSwap(crLive, crReaped) {
			rec.reg.unregister(rec)
		}
		return
	}
	reg := rec.reg
	if !rec.state.CompareAndSwap(crLive, crDead) {
		return
	}
	reg.abandoned.Add(1)
	reg.dead.Add(1)
	// An injected scavenge fault (chaos builds) can still defer the
	// inline reap; only then hand the record to a watchdog, and only on
	// an open shard (a closed shard's drain already settled its pools).
	if !reg.reapNow(rec) && !reg.sh.closed.Load() {
		reg.sh.ensureWatchdog(reg.sys)
	}
}

// reapNow scavenges one dead record outside the watchdog tick — the
// cleanup backstop's inline path. Serialized against the tick walk by
// reg.mu; the ownership CAS and the terminal gate make a concurrent
// watchdog pass over the same record settle exactly once.
//
//ppc:coldpath -- GC cleanup of a leaked client
func (reg *clientRegistry) reapNow(rec *clientRec) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if rec.state.Load() != crDead || !reg.scavengeOne(rec) {
		return false
	}
	if i := rec.idx; i >= 0 && i < len(reg.recs) && reg.recs[i] == rec {
		last := len(reg.recs) - 1
		reg.recs[i] = reg.recs[last]
		reg.recs[i].idx = i
		reg.recs[last] = nil
		reg.recs = reg.recs[:last]
		rec.idx = -1
	}
	return true
}

// declareDead moves a record live->dead and wakes the scavenger's
// watchdog. Idempotent; returns whether this call made the transition.
//
//ppc:coldpath -- domain death
func (rec *clientRec) declareDead() bool {
	if !rec.state.CompareAndSwap(crLive, crDead) {
		return false
	}
	reg := rec.reg
	reg.abandoned.Add(1)
	reg.dead.Add(1)
	// The scavenger rides the watchdog; make sure one is ticking (a
	// sync-only system may never have spawned it). A closed shard's
	// resources were already drained by Close; no ticker needed.
	if !reg.sh.closed.Load() {
		reg.sh.ensureWatchdog(reg.sys)
	}
	return true
}

// Abandon declares the client's domain dead: every resource it owns —
// held descriptor, payload leases, deadline executor and wheel node,
// staged batch entries, carried probe — is reclaimed by the shard's
// scavenger on an upcoming watchdog tick. Abandon may be called from
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

// enter opens an owner-side record mutation (lease tracking, batch
// staging). Fails with ErrClientAbandoned once the scavenger owns the
// record. The client is single-goroutine by contract, so the only
// possible CAS loser is a record the scavenger took.
//
//ppc:hotpath
func (rec *clientRec) enter() error {
	if rec.gate.CompareAndSwap(recGateIdle, recGateOwner) {
		return nil
	}
	return ErrClientAbandoned
}

// leave closes an owner-side record mutation.
//
//ppc:hotpath
func (rec *clientRec) leave() { rec.gate.Store(recGateIdle) }

// trackLease records an unattached payload lease under the gate.
func (rec *clientRec) trackLease(ref PayloadRef) {
	if rec.nleases < recLeaseSlots {
		rec.leases[rec.nleases] = ref
		rec.nleases++
		return
	}
	rec.spillLease(ref)
}

// spillLease is the over-capacity slow path (allocates).
//
//ppc:coldpath -- more than recLeaseSlots unattached leases outstanding
func (rec *clientRec) spillLease(ref PayloadRef) {
	rec.spill = append(rec.spill, ref)
}

// untrackLease drops one tracked lease (consumed by a submission or
// released by the owner). Unknown refs are ignored — the tracked set is
// a superset guard, not an accounting ledger.
func (rec *clientRec) untrackLease(ref PayloadRef) {
	for i := 0; i < rec.nleases; i++ {
		if rec.leases[i] == ref {
			rec.nleases--
			rec.leases[i] = rec.leases[rec.nleases]
			return
		}
	}
	for i, r := range rec.spill {
		if r == ref {
			rec.spill[i] = rec.spill[len(rec.spill)-1]
			rec.spill = rec.spill[:len(rec.spill)-1]
			return
		}
	}
}

// consumeArgs untracks every payload ref attached to args: the
// submission the caller is about to make owns them from here, whatever
// its outcome. Fails with ErrClientAbandoned if the scavenger already
// drained the record — in that case the leases were released and the
// call must not run (it would double-release them).
//
//ppc:coldpath -- only calls that attached payloads come here
func (c *Client) consumeArgs(args *Args) error {
	rec := c.rec
	if err := rec.enter(); err != nil {
		return err
	}
	n := payloadCount(args[OpFlagsWord])
	for i := 0; i < n; i++ {
		rec.untrackLease(PayloadRef(args[payloadWord(i)]))
	}
	rec.leave()
	return nil
}

// notePayloads is the warm-path guard in front of consumeArgs: one
// masked load and a predictable branch for the no-payload case.
//
//ppc:hotpath
func (c *Client) notePayloads(args *Args) error {
	if args[OpFlagsWord]&payloadCountMask == 0 {
		return nil
	}
	return c.consumeArgs(args)
}

// noteBatchPayloads is the batch analogue of notePayloads: the
// submission the caller is about to make owns every lease attached to
// any entry. The payload-free warm path is one masked load per entry.
//
//ppc:hotpath
func (c *Client) noteBatchPayloads(argss []Args) error {
	carrying := false
	for i := range argss {
		if argss[i][OpFlagsWord]&payloadCountMask != 0 {
			carrying = true
			break
		}
	}
	if !carrying {
		return nil
	}
	rec := c.rec
	if err := rec.enter(); err != nil {
		return err
	}
	for i := range argss {
		n := payloadCount(argss[i][OpFlagsWord])
		for j := 0; j < n; j++ {
			rec.untrackLease(PayloadRef(argss[i][payloadWord(j)]))
		}
	}
	rec.leave()
	return nil
}

// trackBatch files a batch's staging buffer on the record so the
// scavenger can settle its staged payload leases.
//
//ppc:coldpath -- batch construction
func (rec *clientRec) trackBatch(b *batchStage) error {
	if err := rec.enter(); err != nil {
		return err
	}
	rec.batches = append(rec.batches, b)
	rec.leave()
	return nil
}

// staged reports whether any of the client's batches holds unflushed
// requests (whose payload leases would need settling).
func (rec *clientRec) staged() bool {
	for _, b := range rec.batches {
		if len(b.reqs) != 0 {
			return true
		}
	}
	return false
}

// setProbe publishes (or clears) the probe the client's current call
// carries. Cold: winning a half-open election is by definition off the
// healthy path.
//
//ppc:coldpath -- half-open probe bookkeeping
func (rec *clientRec) setProbe(svc *Service, counters *shardCounters) {
	rec.probe.Store(&probeRef{svc: svc, counters: counters})
}

func (rec *clientRec) clearProbe() { rec.probe.Store(nil) }

// beatTick stamps the client's liveness beat (epoch-enrolled clients
// only): the one plain store the warm path pays for liveness.
//
//ppc:hotpath
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
		reg.markStale(rec, epoch)
		if rec.state.Load() != crDead || !reg.scavengeOne(rec) {
			i++
			continue
		}
		// Reaped: swap-delete from the walk list.
		last := len(reg.recs) - 1
		reg.recs[i] = reg.recs[last]
		reg.recs[i].idx = i
		reg.recs[last] = nil
		reg.recs = reg.recs[:last]
		rec.idx = -1
	}
}

// markStale declares a live epoch-enrolled client dead when it has not
// stamped a beat for its whole budget of scavenger epochs — the
// in-process analogue of a missed heartbeat across /dev/shm. epoch is
// zero when no client is enrolled (the epoch did not advance).
//
//ppc:coldpath -- watchdog tick work, off every call path
func (reg *clientRegistry) markStale(rec *clientRec, epoch uint64) {
	if epoch == 0 || rec.epochs == 0 || rec.state.Load() != crLive {
		return
	}
	if epoch-rec.beat.Load() > rec.epochs {
		if rec.state.CompareAndSwap(crLive, crDead) {
			reg.abandoned.Add(1)
			reg.dead.Add(1)
		}
	}
}

// scavengeOne reclaims one dead client's holdings. Returns true when
// the record is fully reaped; false defers the client to the next tick
// (a call in flight, an owner record op racing, or an injected fault).
// Caller holds reg.mu.
//
//ppc:coldpath -- domain-death reclamation
func (reg *clientRegistry) scavengeOne(rec *clientRec) bool {
	if faultTagEnabled {
		if err := reg.sys.fireFault(FaultSiteScavenge); err != nil {
			return false // injected stall/error: retry next tick
		}
	}
	sh := reg.sh
	// 1. Take the record gate terminally FIRST: once it is terminal no
	// owner op can file a new descriptor, lease, or batch behind the
	// walk below (a Hold racing a later step would strand its CD
	// forever). An owner op caught mid-mutation defers the client one
	// tick; the terminal gate is sticky, so a deferred client re-enters
	// here and continues.
	if !rec.gate.CompareAndSwap(recGateIdle, recGateScavenged) &&
		rec.gate.Load() != recGateScavenged {
		return false
	}
	// 2. The held descriptor, arbitrated by the ownership word. owBusy
	// means the dead client's final *deadline* call is still running —
	// defer everything (its completion will settle leases, probe, and
	// the tombstone itself). owHeld is condemned, not repooled: the
	// plain sync path never transitions the word, so a plain call may
	// still be running on the descriptor right now. Bumping the
	// generation makes the owner's tombstone and Release CASes fail,
	// the pool is compensated with a fresh descriptor, and the
	// condemned one becomes garbage once the handler (if any) returns.
	if cd := rec.cd.Load(); cd != nil {
		w := cd.owner.Load()
		if ownerIs(w, rec.id) {
			switch ownerState(w) {
			case owBusy:
				return false
			case owHeld:
				if !cd.owner.CompareAndSwap(w, packOwner(ownerGen(w)+1, rec.id, owDead)) {
					return false // lost to a deadline entry CAS or a tombstone; retry
				}
				sh.heldCDs.Add(-1)
				if reg.sys.closeEpoch.Load() == rec.heldEpoch.Load() {
					sh.pushCD(sh.newCD(0))
				}
				reg.scavCDs.Add(1)
			}
			// owDead / owFree under this id: the owner's own tombstone or
			// Release already settled it.
		}
		rec.cd.Store(nil)
	}
	// 3. The deadline executor. Safe to retire here: step 2 proved no
	// deadline call is in flight (the deadline path holds the word
	// owBusy for its whole flight; a plain sync call still running on a
	// condemned descriptor never touches the executor), so the executor
	// is idle — the same precondition Release relies on. retire() also
	// unfiles the wheel node.
	if e := rec.dl.Load(); e != nil {
		e.retire()
		rec.dl.Store(nil)
	}
	// 4. The record body: tracked leases and staged batch payloads,
	// drained under the terminal gate taken in step 1.
	for i := 0; i < rec.nleases; i++ {
		sh.arena.release(rec.leases[i])
	}
	reg.scavLeases.Add(int64(rec.nleases))
	rec.nleases = 0
	for _, ref := range rec.spill {
		sh.arena.release(ref)
	}
	reg.scavLeases.Add(int64(len(rec.spill)))
	rec.spill = nil
	for _, b := range rec.batches {
		for i := range b.reqs {
			reg.scavLeases.Add(int64(payloadCount(b.reqs[i][OpFlagsWord])))
		}
		sh.releaseBatchPayloads(b.reqs)
		b.reqs = b.reqs[:0]
	}
	rec.batches = nil
	// 5. A carried half-open probe: settle the gate back to degraded so
	// the stripe is never wedged shedding behind a probe that will never
	// report.
	if p := rec.probe.Swap(nil); p != nil {
		p.svc.gateReopen(p.counters)
	}
	// 6. Reap.
	rec.state.Store(crReaped)
	if rec.epochs > 0 {
		reg.epochClients.Add(-1)
	}
	reg.dead.Add(-1)
	return true
}

// ownerExit publishes the ownership exit for a resolved deadline call
// on cd — restore busy->held with the one plain store, then settle the
// tombstone if the client died mid-call. Only the deadline paths use
// this; the plain sync path never transitions the word and performs
// just the life re-check inline.
//
//ppc:hotpath
func (c *Client) ownerExit(cd *callDesc) {
	cd.owner.Store(c.owHeld)
	if c.rec.state.Load() != crLive {
		c.tombstoneExit(cd)
	}
}

// tombstoneExit is the dead owner's completion path: the exit life
// check came back dead while the word (plain path: untouched all
// along; deadline path: just restored by ownerExit) still reads owHeld
// under this hold's generation — unless the scavenger already
// condemned it, in which case its generation bump makes this CAS fail.
// Exactly one party reclaims: the winner here pushes the descriptor
// itself; a scavenger that won instead compensated the pool with a
// fresh one and left this descriptor as garbage.
//
//ppc:coldpath -- the client was abandoned mid-call
func (c *Client) tombstoneExit(cd *callDesc) {
	reg := c.rec.reg
	reg.tombstoned.Add(1)
	if cd.owner.CompareAndSwap(c.owHeld, packOwner(ownerGen(c.owHeld)+1, c.program, owDead)) {
		// This completion won: reclaim exactly as the scavenger would.
		c.shard.heldCDs.Add(-1)
		if c.sys.closeEpoch.Load() == c.heldEpoch {
			c.shard.pushCD(cd)
		}
	}
	// Lost: the scavenger (or a racing Release) already settled it —
	// the completion landed in the tombstone and walks away.
	c.rec.cd.Store(nil)
	c.held = nil
	c.dl = nil
}

// ownerLost is the dead owner's entry path: the plain path's life
// check (or the deadline path's entry CAS) found the client dead.
// Settle the call's payload leases (the attach transferred them to
// this call), settle the held descriptor — the entry check declined
// before any word transition, so the word still reads owHeld under
// this hold's generation unless the scavenger already condemned it —
// and fail. Without the settle here the descriptor would be stranded:
// clearing rec.cd hides it from the scavenger's walk.
//
//ppc:coldpath -- the client was abandoned before this call
func (c *Client) ownerLost(args *Args) error {
	c.shard.releaseArgsPayloads(args)
	if cd := c.held; cd != nil {
		if cd.owner.CompareAndSwap(c.owHeld, packOwner(ownerGen(c.owHeld)+1, c.program, owDead)) {
			c.shard.heldCDs.Add(-1)
			if c.sys.closeEpoch.Load() == c.heldEpoch {
				c.shard.pushCD(cd)
			}
		}
		c.held = nil
		c.dl = nil
	}
	c.rec.cd.Store(nil)
	return ErrClientAbandoned
}
