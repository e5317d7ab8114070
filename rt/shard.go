package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultScratchBytes is the default per-call scratch ("stack page").
const defaultScratchBytes = 4096

// defaultAsyncQueueCap bounds the per-shard async request ring.
const defaultAsyncQueueCap = 64

// defaultMaxWorkers bounds the per-shard async worker pool.
const defaultMaxWorkers = 8

// defaultSubmitWait is how long an async submission waits for ring
// space once the worker pool is saturated before reporting
// ErrBackpressure. Bounded by design: a full ring must surface as an
// error to the submitter, never as head-of-line blocking for everyone
// else.
const defaultSubmitWait = time.Millisecond

// defaultNotifyWait bounds how long a worker waits to deliver a
// completion notification on an unready channel before dropping it
// (counted in ShardStats.NotifyDrops). An abandoned unbuffered done
// channel must cost one bounded wait, not a wedged worker.
const defaultNotifyWait = 100 * time.Millisecond

// asyncBatchSize is the most requests a worker claims per ring visit —
// the paper's amortization lever: one wakeup, one stop-check, one
// doorbell round for up to this many requests.
const asyncBatchSize = 16

// submitFullSpins is how many read-only push retries a submitter makes
// against a full ring between yields (submit): a draining worker frees a
// whole batch of slots in well under a scheduler round trip.
const submitFullSpins = 128

// callDesc is the real-concurrency analogue of the paper's call
// descriptor: a recycled per-call context carrying a scratch buffer
// that successive calls to *different* services serially share —
// the cache-footprint optimization of §2 — allocated by the first call
// that asks for it (Ctx.Scratch). Descriptors live in per-shard
// lock-free pools.
//
// A descriptor has one serial owner at a time (the client holding it,
// the pooled call that popped it, an async worker), and that owner
// writes its first two lines on every call. The struct is therefore
// sized to whole cache lines — three, which also takes it out of the
// allocator size class Service lives in: at 112 bytes each the two used
// to be packed back to back, a held descriptor beside the Service every
// caller reads and beside the next client's descriptor, and sync_held
// swung 1–8× with heap placement (bench/README.md, Findings 1).
//
//ppc:padded
type callDesc struct {
	// Line 0: the handler context, rewritten by every dispatch.
	//
	//ppc:hotline(call)
	ctx Ctx

	// Line 1: the rest of what a held call touches — the scratch slice
	// (read by Ctx.Scratch, nil until then) and the one-entry stripe
	// cache: the call stripe this descriptor owns for the service it last
	// called (stripeOf).
	//
	//ppc:hotline(call)
	scratch []byte
	//ppc:hotline(call)
	stripeSvc *Service
	//ppc:hotline(call)
	stripe *callStripe
	_      [24]byte

	// Line 2: cold. slot is the descriptor's place on shard.cds, the
	// number the shard's free list links it by; stripes is every
	// (service, stripe) pair this descriptor owns, the backing store of
	// the cache above.
	slot    uint32
	shard   *shard
	stripes []stripeRef
	_       [24]byte // tile to three lines (see above): who holds the descriptor is the holder's record's business (owner.go)
}

// stripeRef is one entry of a descriptor's stripe list.
type stripeRef struct {
	svc *Service
	st  *callStripe
}

// stripeOf returns the call stripe this descriptor owns for svc. A call
// to the same service as the descriptor's last one is one pointer
// compare.
//
//ppc:hotpath
func (cd *callDesc) stripeOf(svc *Service) *callStripe {
	if cd.stripeSvc == svc {
		return cd.stripe
	}
	return cd.stripeFor(svc)
}

// stripeFor is the miss path of the descriptor's stripe cache: find the
// stripe this descriptor already owns for svc, or allocate one and link
// it into the service (Service.newStripe), then make it the cached
// entry. Counters follow the descriptor: the stripe stays with it
// across Release and re-Hold, pool recycling, Close and condemnation,
// and stays linked in the service for good, so there is no unlink to
// race a kill drain. The walk drops entries whose service is dead, so a
// recycled descriptor does not keep killed Services reachable. Only the
// descriptor's current serial owner calls this.
//
//ppc:coldpath -- first held call of this descriptor to svc, or a client alternating services
func (cd *callDesc) stripeFor(svc *Service) *callStripe {
	var st *callStripe
	n := 0
	for _, r := range cd.stripes {
		if r.svc.state.Load() == svcDead {
			continue
		}
		if r.svc == svc {
			st = r.st
		}
		cd.stripes[n] = r
		n++
	}
	clear(cd.stripes[n:])
	cd.stripes = cd.stripes[:n]
	if st == nil {
		st = svc.newStripe()
		cd.stripes = append(cd.stripes, stripeRef{svc, st})
	}
	cd.stripeSvc, cd.stripe = svc, st
	return st
}

// epEntry is one shard's replica of a bound entry point — the §4.5.5
// replicated service table carried to Track B. Each shard gets its own
// immutable (service, handler, counters) triple, allocated afresh at
// publication time, so the warm lookup dereferences only memory that
// no other shard's publication ever rewrites: the table slot and the
// entry it points at are read by exactly one shard. The counters
// pointer pre-resolves this shard's block of the service's per-shard
// counters, saving the perShard slice-header indirection per call.
type epEntry struct {
	svc      *Service
	h        Handler
	counters *shardCounters
}

// epPage is one page of a shard's service table, made when the first of
// its epPageLen entry points is bound (shard.publish).
type epPage [epPageLen]atomic.Pointer[epEntry]

const epPageLen = 32

// shard is the per-"processor" state: a lock-free free list of call
// descriptors, a replica of the service table, and the async worker
// machinery. Padding keeps shards on distinct cache lines, and —
// since System.shards is a []shard — the //ppc:padded annotation has
// ppclint verify the internal line assignments AND that the struct
// size tiles 64 bytes, so neighbouring shards never shear.
//
//ppc:padded
type shard struct {
	id int

	// tab is this shard's replica of the service table (§4.5.5), paged
	// and inline: written only by the control plane (Bind/Exchange/Kill
	// publish to every replica under System.mu) and read only by calls
	// bound to this shard — the lookup never touches a line another
	// processor's calls read, exactly as in the paper.
	//
	//ppc:shard-owned
	tab [MaxEntryPoints / epPageLen]atomic.Pointer[epPage]

	// cdsCreated counts descriptor allocations (pool growth).
	cdsCreated atomic.Int64
	// heldCDs counts descriptors currently pinned by clients in held-CD
	// mode (Client.Hold / the first Call); they are outside the free
	// pool until Release.
	heldCDs atomic.Int64
	_       [40]byte // fill the table's last line: the pool head starts on its own

	// free is the stack of pooled call descriptors by slot number, and cds
	// the table of chunks the numbers index (cdAt), one slot per descriptor.
	// With callers bound to their own shards the CAS never contends; it
	// exists so that *correctness* does not depend on the binding
	// discipline, only performance. A pop reads both, so they share a
	// line, theirs alone: async workers pop/push descriptors from other
	// cores, and before this padding their CAS invalidated the line
	// holding the service table that every submit reads.
	//
	//ppc:shard-owned
	//ppc:hotline(pool)
	free idxStack
	//ppc:atomic
	//ppc:hotline(pool)
	cds atomic.Pointer[[]*cdChunk]
	_   [32]byte

	// dlIdle is the stack of idle deadline executors, by their slot on
	// dlExecs (deadline.go), popped and pushed by every deadline call: it
	// owns its line as free does.
	//
	//ppc:hotline
	dlIdle idxStack
	_      [40]byte

	// doorbell wakes a parked worker. Submitters ring it only when
	// parked is nonzero, so the steady-state pipeline never touches it;
	// the buffer of one coalesces rings (a pending token means a wakeup
	// is already owed).
	//
	//ppc:hotline(wake)
	doorbell chan struct{}
	// parked counts workers blocked on the doorbell. A worker
	// increments it, re-checks the ring (the Dekker handshake against
	// a concurrent publish), and only then blocks. The wake pair shares
	// one line by design (same transition touches both), theirs alone.
	//
	//ppc:atomic
	//ppc:hotline(wake)
	parked atomic.Int64
	_      [48]byte

	// clock is the shared coarse clock the shard tick, the submit slow
	// paths, and the worker batch drain refresh (and the deadline arm
	// path reads). Padded internally; placed on the line boundary the
	// wake pair's pad establishes, so that padding holds. Everything below
	// it down to the arena is control-plane state with no line
	// requirements; the control-plane run plus the tail pad keep the
	// whole struct tiling whole cache lines (and the embedded arena
	// line-aligned) so System.shards never shears — pinned in
	// layout_test.go.
	clock coarseClock

	// stop, once closed, tells workers to drain the ring and exit.
	stop chan struct{}
	//ppc:atomic
	workers    atomic.Int64
	maxWorkers int64
	submitWait time.Duration
	notifyWait time.Duration

	// Worker supervision (watchdog.go). beats holds one padded
	// heartbeat line per potential async worker; stuckWorkers is the
	// gauge the supervision scan stores and the pool's cap reads
	// (workerCap).
	beats            []workerBeat
	stallThreshold   time.Duration
	watchdogInterval time.Duration
	watchdogOn       bool // guarded by qMu
	stuckWorkers     atomic.Int64

	// Deadline calls (deadline.go): dlExecs is the shard's deadline
	// executors, idle and busy, one slot each (nil once it has exited), for
	// the tick's walk and for dlIdle's slot numbers — a list that is
	// replaced, never written, under dlMu (an executor's creation and exit,
	// both cold; dlMu also orders newCD's slots). dlTick is the tick in
	// use while any is registered, and retick is startTick's token to a
	// running loop: buffered(1), coalescing.
	dlMu sync.Mutex
	//ppc:atomic
	dlExecs atomic.Pointer[[]*dlExec]
	dlTick  time.Duration
	retick  chan struct{}

	// Deadline / orphaning accounting (deadline.go). quarantinedCDs
	// counts deadline executors still running an orphaned handler, each
	// on its own descriptor; deadlineExpired counts calls settled by
	// expiry (sync orphans and async drops alike).
	quarantinedCDs  atomic.Int64
	deadlineExpired atomic.Int64

	// Lifecycle observability (see ShardStats); tenantThrottled is the
	// tenant budget's shed count (tenant.go).
	backpressure    atomic.Int64
	workerExits     atomic.Int64
	notifyDrops     atomic.Int64
	tenantThrottled atomic.Int64

	//ppc:atomic
	closed atomic.Bool
	qMu    sync.Mutex // guards worker spawn vs close — never on the submit fast path
	wg     sync.WaitGroup
	_      [48]byte // the control-plane run ends on a line: the lane block below starts one

	// lanes holds the shard's async rings, one per criticality class
	// (lane.go; one for a shard built without Options.Lanes), feeding the
	// async workers made as needed (§4.4, §2); ringsReady is stored once,
	// by provisionRings. tenants is the per-shard bucket table (tenant.go;
	// nil until the first ConfigureTenant publishes it). All read-mostly;
	// the block is sized to two whole lines so the arena below keeps its
	// 64-alignment.
	lanes []laneRing
	//ppc:atomic
	ringsReady atomic.Bool
	//ppc:atomic
	tenants atomic.Pointer[tenantTable]
	// yieldPerBatch: Options.CooperativeYield — the worker cedes the P
	// once per serviced batch so sleeping submitters can publish.
	// Read-only after construction, like the rest of this block.
	yieldPerBatch bool
	_             [87]byte // fill the lane/tenant block to 128 bytes

	// arena is the shard's payload arena (arena.go) and offload its
	// copy-staging lane (offload.go). Warm payload traffic only *loads*
	// arena fields (the RMW-hot cursors live in the slabs, padded
	// there); the lane is reached only on large transfers. The arena
	// sits at the struct's tail on the line boundary the control-plane
	// fields above fill out to (pinned in layout_test.go), so its
	// internal cur-line isolation is not sheared.
	arena   shardArena
	offload *offloadLane
	// reg is the shard's share of domain death (owner.go): the death
	// counters live behind this one cold pointer, so the shard's own
	// layout is untouched by the ownership protocol.
	reg *clientRegistry
	_   [48]byte // tail pad: shard tiles whole lines (System.shards is a []shard)
}

type asyncReq struct {
	sys  *System
	svc  *Service
	args Args
	prog uint32
	done chan<- struct{} // optional completion notification
	// deadline is the absolute unix-nano expiry (0: none). A request
	// still queued past it is settled as expired instead of executed.
	deadline int64
}

// clearRefs nils just the pointer fields — all the GC cares about —
// instead of zeroing the whole request (the args block dominates its
// size, and rewriting it costs a cache line and a half per dequeue).
//
//ppc:hotpath
func (r *asyncReq) clearRefs() {
	r.sys = nil
	r.svc = nil
	r.done = nil
}

func (sh *shard) init(id int) {
	sh.id = id
	sh.doorbell = make(chan struct{}, 1)
	sh.stop = make(chan struct{})
	sh.retick = make(chan struct{}, 1)
	sh.dlExecs.Store(new([]*dlExec))
	sh.maxWorkers = defaultMaxWorkers
	sh.submitWait = defaultSubmitWait
	sh.notifyWait = defaultNotifyWait
	sh.offload = &offloadLane{}
	sh.offload.init(defaultOffloadThreshold)
	sh.arena.lane = sh.offload
}

// configureArena applies Options' payload knobs (called from
// NewSystemOptions, once per shard, before any traffic).
//
//ppc:coldpath -- construction-time configuration
func (sh *shard) configureArena(o Options) {
	if o.OffloadThreshold != 0 {
		sh.offload.threshold = o.OffloadThreshold // negative disables
	}
}

// entry loads this shard's replica of ep: the page pointer from the
// shard's own lines, then the entry; nil at either step is unbound.
//
//ppc:hotpath
func (sh *shard) entry(ep EntryPointID) *epEntry {
	if p := int(ep / epPageLen); p < len(sh.tab) {
		if pg := sh.tab[p].Load(); pg != nil {
			return pg[ep%epPageLen].Load()
		}
	}
	return nil
}

// resolve reads this shard's replica of entry point ep — the fast-path
// service-table access (§4.5.5) — and vets what it finds: an unbound
// entry point is ErrBadEntryPoint, a service no longer active ErrKilled.
//
//ppc:hotpath
func (sh *shard) resolve(ep EntryPointID) (*epEntry, error) {
	e := sh.entry(ep)
	if e == nil {
		return nil, ErrBadEntryPoint
	}
	if e.svc.state.Load() != svcActive {
		return nil, ErrKilled
	}
	return e, nil
}

// publish installs e as this shard's replica entry for ep — nil retracts
// it — making ep's page first, its pointer stored before any entry in it,
// when none of its entry points was bound before. Called only by the
// control plane (Bind/Exchange/Kill) under System.mu.
//
//ppc:coldpath -- control-plane publication, serialized by System.mu
func (sh *shard) publish(ep EntryPointID, e *epEntry) {
	if sh.tab[ep/epPageLen].Load() == nil {
		sh.tab[ep/epPageLen].Store(new(epPage))
	}
	sh.tab[ep/epPageLen].Load()[ep%epPageLen].Store(e)
}

// foldHealth adds every gated service's per-shard health counters into
// out, indexed by shard, walking only this replica's allocated pages.
//
//ppc:coldpath -- diagnostics walk, deliberately off the call path
func (sh *shard) foldHealth(out []ShardStats) {
	for p := range sh.tab {
		for pg, j := sh.tab[p].Load(), 0; pg != nil && j < epPageLen; j++ {
			if e := pg[j].Load(); e != nil && e.svc.health != nil {
				for i := range out {
					c := &e.svc.perShard[i]
					out[i].HealthTrips += c.healthTrips.Load()
					out[i].HealthRecovers += c.healthRecovers.Load()
					out[i].ShedCalls += c.shedCalls.Load()
				}
			}
		}
	}
}

// holdCD takes a descriptor out of the pool for a client entering
// held-CD mode; it stays out until releaseCD.
//
//ppc:coldpath -- descriptor acquisition; the warm held path never comes here
func (sh *shard) holdCD() *callDesc {
	sh.heldCDs.Add(1)
	return sh.popCD()
}

// releaseCD ends a hold: the descriptor goes back to the free list,
// before Close or after it (synchronous calls keep popping the pool).
//
//ppc:coldpath -- descriptor release, off the warm call path
func (sh *shard) releaseCD(cd *callDesc) {
	sh.heldCDs.Add(-1)
	sh.pushCD(cd)
}

// popCD takes a descriptor from the shard pool, or allocates one. The
// warm path is one CAS; descriptor creation is the cold half.
func (sh *shard) popCD() *callDesc {
	if i := sh.free.pop(); i >= 0 {
		return sh.cdAt(uint32(i)).Load()
	}
	return sh.newCD(nil)
}

// pushCD returns a descriptor to the pool.
func (sh *shard) pushCD(cd *callDesc) { sh.free.put(cd.slot) }

// cdAt is slot i of the shard's descriptor table.
func (sh *shard) cdAt(i uint32) *atomic.Pointer[callDesc] {
	return &(*sh.cds.Load())[i/idxChunkLen][i%idxChunkLen]
}

// newCD manufactures a call descriptor — the analogue of Frank
// provisioning a CD from local memory — on the shard's next slot, or on
// old's when it replaces a condemned descriptor (reap): the table keeps
// nothing condemned reachable and does not grow on a death. Its scratch
// comes later, from the first call that asks for it (Ctx.Scratch).
//
//ppc:coldpath -- pool growth, or a death's compensation
func (sh *shard) newCD(old *callDesc) *callDesc {
	cd := &callDesc{shard: sh}
	sh.dlMu.Lock()
	if old != nil {
		cd.slot = old.slot
	} else {
		cd.slot = sh.free.slots.Load()
		sh.free.grow(cd.slot + 1)
		growChunks(&sh.cds, cd.slot+1)
	}
	sh.cdAt(cd.slot).Store(cd)
	sh.dlMu.Unlock()
	sh.cdsCreated.Add(1)
	return cd
}

// growScratch gives a descriptor a scratch buffer of n bytes when a call
// asks for more than it has (Ctx.Scratch).
//
//ppc:coldpath -- at most once per descriptor per larger size
func growScratch(cd *callDesc, n int) {
	cd.scratch = make([]byte, n)
}

// poolSize counts pooled descriptors (diagnostics; O(n)).
func (sh *shard) poolSize() int { return sh.free.size() }

// idxStack is the free list of a per-shard pool whose members have fixed
// slots: a lock-free LIFO of slot numbers through link words it owns,
// kept in chunks that never move. Its head is tag<<32 | slot+1 (zero:
// empty) and every put raises the tag, so a pop that read the head before
// its top was popped and put back fails its CAS, where a pointer head
// would install a link to a member in use (docs/INVARIANTS.md). A link is
// a slot number, not a pointer, so a pop leaves it in place.
type idxStack struct {
	//ppc:atomic
	head atomic.Uint64
	//ppc:atomic
	links atomic.Pointer[[]*idxChunk]
	//ppc:atomic
	slots atomic.Uint32 // slots with a link word
}

type (
	idxChunk [idxChunkLen]atomic.Uint32
	cdChunk  [idxChunkLen]atomic.Pointer[callDesc]
)

const idxChunkLen = 64

// pop takes the top slot off the stack; -1 when it is empty.
//
//ppc:aba(head) -- the head's tag half, raised by every put
func (s *idxStack) pop() int {
	for {
		h := s.head.Load()
		if uint32(h) == 0 {
			return -1
		}
		if s.head.CompareAndSwap(h, h>>32<<32|uint64(s.link(uint32(h)-1).Load())) {
			return int(uint32(h) - 1)
		}
	}
}

// put pushes slot i under a raised tag.
func (s *idxStack) put(i uint32) {
	l := s.link(i)
	for {
		h := s.head.Load()
		l.Store(uint32(h))
		if s.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(i+1)) {
			return
		}
	}
}

func (s *idxStack) link(i uint32) *atomic.Uint32 {
	return &(*s.links.Load())[i/idxChunkLen][i%idxChunkLen]
}

// grow gives every slot below n a link word. The caller holds shard.dlMu.
func (s *idxStack) grow(n uint32) {
	growChunks(&s.links, n)
	if n > s.slots.Load() {
		s.slots.Store(n)
	}
}

// size counts the slots on the stack; a walk that races pops and puts can
// revisit one, so it stops at the slot count.
func (s *idxStack) size() int {
	n := 0
	for i := uint32(s.head.Load()); i != 0 && n < int(s.slots.Load()); n++ {
		i = s.link(i - 1).Load()
	}
	return n
}

// growChunks makes the chunk list at p cover n slots; slots come one at a
// time, so it is at most one chunk short. A chunk never moves and the
// list is never written below its length, so readers index any list they
// load, and appending amortizes to O(1) a slot. The caller holds
// shard.dlMu.
func growChunks[C any](p *atomic.Pointer[[]*C], n uint32) {
	var old []*C
	if l := p.Load(); l != nil {
		old = *l
	}
	if uint32(len(old))*idxChunkLen < n {
		list := append(old, new(C))
		p.Store(&list)
	}
}

// submit publishes argss on lr: one ring push (ticket CAS + slot write)
// per request and one wake — in the steady state two atomic loads — for
// all of them: the §4.4 amortized asynchronous call, of which a single
// submission is the batch of one. No locks, no channel internals, no
// scheduler transit, and no word written for Close's sake: a closed ring
// refuses the push on the cursor it loads anyway (ring.go). The shard's
// first submission allocates its rings (provisionRings). Admission
// accounting (in-flight counts, kill back-outs) is the caller's; submit
// reports how many leading requests the ring accepted and, when that is
// not all of them, why the rest were refused.
//
// A refused push continues the same loop. A closed ring fails the tail
// with ErrClosed at once — from inside the bounded wait, and ahead of an
// injected refusal — and counts nothing (not overload). Otherwise the
// lowest of two or more lanes sheds its tail at once (ErrShed), and every
// other ring spins and yields for space up to submitWait (ringFull)
// before reporting ErrBackpressure: overload is reported to the one
// overloading submitter, in criticality order (lane.go).
//
//ppc:hotpath
//ppc:rmwbudget(4) -- the ticket CAS, the slot's publish store, a rejection's backpressure and lane-shed counts
func (sh *shard) submit(sys *System, svc *Service, lr *laneRing, argss []Args, prog uint32, done chan<- struct{}, deadline int64) (int, error) {
	if !sh.ringsReady.Load() {
		sh.provisionRings()
	}
	err := sys.fireFault(faultSiteSubmit)
	if err != nil {
		err = ErrBackpressure // injected: refused before the ring is tried
		if lr.ring.closed() {
			err = ErrClosed // closed outranks an injected refusal, as it does a full ring
		}
	}
	n, full := 0, false
	var waitUntil int64     // the bounded wait's end; 0 until the ring first refuses
	spun := submitFullSpins // so the first refusal opens the wait before it spins
	for err == nil && n < len(argss) {
		if lr.ring.push(sys, svc, &argss[n], prog, done, deadline) {
			n++
			continue
		}
		full = true
		switch {
		case lr.ring.closed():
			err = ErrClosed
		case len(sh.lanes) > 1 && lr == &sh.lanes[len(sh.lanes)-1]:
			err = ErrShed // the lowest of several lanes sheds at once
		case spun < submitFullSpins:
			// Retrying a push against a full ring is read-only (a seq load
			// finds the slot still occupied, no CAS), so spin a bounded
			// burst between yields — a draining worker frees a whole batch
			// of slots in well under a park/unpark round trip.
			spun++
		case sh.ringFull(sys, &waitUntil):
			spun = 0
		default:
			err = ErrBackpressure
		}
	}
	if n > 0 {
		sh.wake(sys)
	}
	if err != nil && err != ErrClosed {
		// The one place a refusal is counted: a bounded wait that ran out
		// (or an injected one) is a backpressure event, and what a full
		// ring turned away is charged to its lane.
		if err == ErrBackpressure {
			sh.backpressure.Add(1)
		}
		if full {
			lr.shed.Add(int64(len(argss) - n))
		}
	}
	return n, err
}

// ringFull is the step submit's push loop takes once per spin epoch
// against a full ring. The first time it opens the bounded wait: ring
// the doorbell (whatever fills the ring is runnable, the head of this
// very batch included), grow the worker pool if it has headroom
// (spawnWorker refuses at maxWorkers), and set the deadline. After that
// it reports false once the deadline has passed and otherwise yields
// rather than sleeps: a timer sleep's real granularity (tens of
// microseconds) would gate saturated throughput, while Gosched hands the
// processor straight to the draining worker and the loop retries the
// moment slots free up. One real clock read per epoch, not per retry,
// and each read feeds the shard's shared coarse clock (the same word
// the shard tick and the batch drain use). The refresh — not a cached
// read — is what ends the wait: the clock may have no other driver.
//
//ppc:coldpath -- overload handling: the ring is full, the caller is already paying
func (sh *shard) ringFull(sys *System, waitUntil *int64) bool {
	now := sh.clock.refresh()
	if *waitUntil == 0 {
		sh.wake(sys)
		sh.spawnWorker(sys)
		*waitUntil = now + int64(sh.submitWait)
		return true
	}
	if now > *waitUntil {
		return false
	}
	runtime.Gosched()
	return true
}

// wake makes freshly-published work visible to a worker: spawn the
// first worker if the pool is empty, and ring the doorbell only when a
// worker is actually parked. In the steady state — a live worker
// draining a non-empty ring — both branches are a single atomic load
// and the submitter never enters the scheduler.
//
//ppc:hotpath
func (sh *shard) wake(sys *System) {
	if sh.workers.Load() == 0 {
		sh.spawnWorker(sys)
	}
	if sh.parked.Load() != 0 {
		sendToken(sh.doorbell)
	}
}

// spawnWorker is the one way the async pool grows: it starts a worker
// unless the pool is at its cap (workerCap: maxWorkers, raised by the
// workers the watchdog counts stuck) or the shard is closing. Its
// callers are wake on an empty pool, ringFull on a full ring, and the
// supervision scan when a stuck worker has work queued behind it. The
// lock is control-plane only: spawns happen when the pool is empty, a
// ring backed up or a worker wedged, never on the steady submit path.
//
//ppc:coldpath -- worker-pool growth control plane, guarded against close, off the steady submit path
func (sh *shard) spawnWorker(sys *System) {
	if sh.workers.Load() >= sh.workerCap() {
		return // saturated overload calls this per submit; skip the lock
	}
	// Supervision starts with the first worker, and ahead of it: a loop
	// started behind its worker tends to outlive Close by a scheduling
	// round, and with it the whole System (bench live_heap_mb, E23).
	if sh.stallThreshold > 0 && !sh.closed.Load() {
		sh.startTick(sys)
	}
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if sh.closed.Load() || sh.workers.Load() >= sh.workerCap() {
		return
	}
	sh.workers.Add(1)
	sh.wg.Add(1)
	go sh.workerLoop(sys)
}

// workerLoop services async requests in batches until stop is closed,
// then drains whatever remains in the ring and exits, keeping the
// worker count accurate on the way out.
//
// A worker that finds every ring empty parks on the doorbell at once —
// no spin, no yield: the submitter's ring readies it on the
// submitter's own processor, and spinning on a second one costs more
// than the park it avoids (EXPERIMENTS.md E19). The steady pipeline —
// requests arriving while the worker drains — never parks and never
// rings. The park is a Dekker handshake with wake: the worker
// advertises itself in parked, re-checks the ring, and only then
// blocks — a submitter either sees the advertisement and rings, or the
// worker sees the submitter's slot and never parks. A worker that
// reaches the park point while the pool is over its cap leaves instead
// (shard.leave): that is how the pool sheds the room stuck workers made
// once they return.
func (sh *shard) workerLoop(sys *System) {
	// The worker holds one call descriptor for its whole lifetime:
	// servicing a request costs no pool CAS, and the scratch buffer
	// stays hot in the worker's cache across the batch.
	cd := sh.popCD()
	beat := sh.claimBeat()
	defer func() {
		sh.pushCD(cd)
		sh.workerExits.Add(1)
		sh.wg.Done()
	}()
	var batch [asyncBatchSize]asyncReq
	// credit is the worker's private copy of the lane quantum vector:
	// claimWeighted spends one per request it claims, and refills it.
	credit := defaultLaneWeights
	var seq uint64
	for {
		if n := sh.claimWeighted(&credit, batch[:]); n > 0 {
			// Heartbeat: one plain store on a worker-private line per
			// batch, not per request — the watchdog's whole warm-path tax.
			if beat != nil {
				seq++
				beat.state.Store(seq<<1 | 1)
			}
			now := sh.batchClock(batch[:n])
			for i := 0; i < n; i++ {
				sh.handleAsync(sys, cd, &batch[i], now)
				batch[i].clearRefs()
			}
			if beat != nil {
				beat.state.Store(seq << 1)
			}
			if sh.yieldPerBatch {
				// Opt-in (Options.CooperativeYield): cede the P once per
				// serviced batch. On a single-P runtime a CPU-bound
				// worker otherwise runs whole scheduler quanta (~10ms)
				// while sleeping submitters — the critical lane's
				// included — wake runnable but cannot publish; one
				// Gosched amortized over a batch bounds cross-lane
				// submit latency by a batch service time instead.
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-sh.stop:
			sh.drainAll(sys, cd, batch[:])
			sh.releaseBeat(beat)
			sh.workers.Add(-1)
			return
		default:
		}
		if !sh.queuesEmpty() {
			// A producer has claimed a slot but not published it yet;
			// yield to it instead of spin-starving it.
			runtime.Gosched()
			continue
		}
		if sh.leave(beat) {
			return
		}
		// Park: advertise, re-check, block. The re-check covers EVERY
		// lane ring — that is what makes the shared doorbell correct
		// per lane: a critical submitter either sees parked != 0 and
		// rings, or this worker sees its slot and never blocks.
		sh.parked.Add(1)
		if !sh.queuesEmpty() {
			sh.parked.Add(-1)
			continue
		}
		select {
		case <-sh.doorbell:
		case <-sh.stop:
		}
		sh.parked.Add(-1)
	}
}

// drainRing services everything left in one ring. The ring is closed
// (shard.close set the bit before it closed stop): its enqueue cursor is
// final, and the drain waits out any ticket claimed but not yet published.
// An empty ring is left untouched, so one never submitted to is not read.
func (sh *shard) drainRing(r *asyncRing, sys *System, cd *callDesc, batch []asyncReq) {
	for !r.empty() {
		n := r.popBatch(batch)
		if n == 0 {
			runtime.Gosched() // an in-flight publish; let it land
			continue
		}
		now := sh.batchClock(batch[:n])
		for i := 0; i < n; i++ {
			sh.handleAsync(sys, cd, &batch[i], now)
			batch[i].clearRefs()
		}
	}
}

// drainAll drains every lane's ring in priority order (the order is
// cosmetic during a drain: everything accepted is serviced either way).
func (sh *shard) drainAll(sys *System, cd *callDesc, batch []asyncReq) {
	for i := range sh.lanes {
		sh.drainRing(&sh.lanes[i].ring, sys, cd, batch)
	}
}

// batchClock supplies the expiry clock for one drained batch: zero (no
// clock read at all) when no request in the batch carries a deadline,
// otherwise one real clock read — refreshed into the shard's shared
// coarse clock, the same word the shard tick maintains — amortized
// over the whole batch instead of a time.Now() per request. Refreshing
// (rather than reading the possibly-stale cache) is required for
// correctness: the clock may have no other driver, and a queued
// deadline must be judged against real time.
func (sh *shard) batchClock(batch []asyncReq) int64 {
	for i := range batch {
		if batch[i].deadline != 0 {
			return sh.clock.refresh()
		}
	}
	return 0
}

// handleAsync runs one dequeued request and delivers its completion
// notification. now is the batch's hoisted coarse clock (batchClock);
// it is nonzero whenever any request in the batch is deadline-stamped.
// The delivery is non-blocking with a bounded fallback: a ready (or
// buffered) channel costs one send, an unready one falls to the cold
// half — an abandoned channel must never wedge the worker (and with it
// every drain) forever.
func (sh *shard) handleAsync(sys *System, cd *callDesc, req *asyncReq, now int64) {
	if req.deadline != 0 && now > req.deadline {
		sh.expireAsync(req)
	} else {
		sys.serviceOneHeld(sh, cd, req.svc, &req.args, req.prog)
	}
	if req.done != nil {
		select {
		case req.done <- struct{}{}:
		default:
			sh.notifySlow(req.done)
		}
	}
}

// expireAsync settles a queued request whose deadline passed before a
// worker reached it: the handler never runs, the in-flight accounting
// is balanced (so a draining soft Kill is not wedged by expired work),
// and the expiry is recorded as health evidence. The completion
// notification is still delivered by the caller — an expired request
// is settled, not lost.
//
//ppc:coldpath -- the deadline already expired; nothing latency-sensitive remains
func (sh *shard) expireAsync(req *asyncReq) {
	sh.deadlineExpired.Add(1)
	sh.releaseArgsPayloads(&req.args)
	counters := &req.svc.perShard[sh.id]
	req.svc.completeAsync(&counters.stripe)
	if req.svc.health != nil {
		req.svc.recordTimeout(counters)
	}
}

// notifySlow waits a bounded time for a notification receiver, then
// drops the notification and counts it in NotifyDrops. Buffered done
// channels (the documented recommendation) never come here.
//
//ppc:coldpath -- the receiver is not ready; the worker is already off the fast path
func (sh *shard) notifySlow(done chan<- struct{}) {
	timer := time.NewTimer(sh.notifyWait)
	defer timer.Stop()
	select {
	case done <- struct{}{}:
	case <-timer.C:
		sh.notifyDrops.Add(1)
	}
}

// stats snapshots the shard's pool and async lifecycle state for
// System.Stats (diagnostics, not the hot path).
//
//ppc:coldpath -- diagnostics snapshot, deliberately off the call path
func (sh *shard) stats(i int) ShardStats {
	st := ShardStats{
		Shard:               i,
		CDsCreated:          sh.cdsCreated.Load(),
		PooledCDs:           sh.poolSize(),
		HeldCDs:             sh.heldCDs.Load(),
		AsyncWorkers:        sh.workers.Load(),
		WorkerExits:         sh.workerExits.Load(),
		BackpressureRejects: sh.backpressure.Load(),
		NotifyDrops:         sh.notifyDrops.Load(),
		StuckWorkers:        sh.stuckWorkers.Load(),
		QuarantinedCDs:      sh.quarantinedCDs.Load(),
		DeadlineExpirations: sh.deadlineExpired.Load(),
		LeasesActive:        sh.arena.leasesActive(),
		OffloadedBytes:      sh.offload.bytes.Load(),
		OffloadQueueDepth:   sh.offload.queueDepth(),
		ArenaGrows:          sh.arena.grows.Load(),
		TenantThrottled:     sh.tenantThrottled.Load(),
	}
	if reg := sh.reg; reg != nil {
		st.AbandonedClients = reg.abandoned.Load()
		st.ScavengedCDs = reg.scavCDs.Load()
		st.ScavengedLeases = reg.scavLeases.Load()
		st.TombstonedCompletions = reg.tombstoned.Load()
	}
	for l := range sh.lanes {
		depth := sh.lanes[l].ring.length()
		st.AsyncQueueDepth += depth
		st.AsyncQueueCap += sh.lanes[l].ring.capacity()
		if len(sh.lanes) > 1 {
			// The per-class views exist only where classes do: a one-lane
			// shard's depth is AsyncQueueDepth, its rejections
			// BackpressureRejects.
			st.LaneDepth[l] = depth
			st.ShedByLane[l] = sh.lanes[l].shed.Load()
		}
	}
	return st
}

// close shuts the shard's async side down: store closed (no worker or
// executor starts after it), set every lane ring's closed bit — the one
// place it is set; a submitter inside its bounded wait fails on its next
// retry, so close waits for none — then tell the workers to drain and
// exit and join them, within deadline unless it is zero (the report is
// whether they made it). Requests accepted before close are executed, not
// dropped: by the workers or, with none left, by close itself.
func (sh *shard) close(sys *System, deadline time.Time) bool {
	sh.qMu.Lock()
	sh.closed.Store(true)
	sh.qMu.Unlock()
	sh.retireExecs() // the idle ones; one in flight is retired when its call is over (pushExec)
	for i := range sh.lanes {
		sh.lanes[i].ring.enq.Or(ringClosed)
	}
	close(sh.stop)
	done := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(done)
	}()
	if deadline.IsZero() {
		<-done
	} else {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			return false
		}
	}
	// A ticket with no worker left (its submitter's spawn lost to close) is
	// serviced here; a shard whose rings hold none pops no descriptor.
	if !sh.queuesEmpty() {
		var batch [asyncBatchSize]asyncReq
		cd := sh.popCD()
		sh.drainAll(sys, cd, batch[:])
		sh.pushCD(cd)
	}
	// A stager that did not see closed published its job before the store
	// above (offloadCopy), so it is visible by now; complete any the worker
	// (if one ever ran) did not get to before exiting.
	sh.offload.drain(&sh.arena)
	return true
}
