package rt

import "time"

// Batch submission — the paper's amortized asynchronous calls (§4.4)
// carried to the ring: one admission check, one submitting window, and
// one worker wakeup cover an arbitrary number of requests, so the
// per-request cost of a burst approaches one slot write.
//
// Two shapes are offered: Client.AsyncBatch submits a caller-owned
// slice in one shot; Batch is a reusable staging buffer for callers
// that accumulate requests incrementally and flush at natural
// boundaries (end of an event-loop turn, a full page of prefetches).

// Batch is a reusable batch of asynchronous requests to one entry
// point. Like a Client it is intended for a single goroutine; Add
// stages requests with no synchronization at all, and Flush publishes
// the whole batch with a single admission. The staging buffer is
// retained across flushes, so a warm Batch submits without touching
// the heap.
type Batch struct {
	c    *Client
	ep   EntryPointID
	done chan<- struct{}
	ttl  time.Duration
	*batchStage
}

// batchStage is the staging buffer of a Batch, split out so that the
// client's ownership record can list it (the scavenger settles staged
// payload leases when the client dies) without reaching the Batch: a
// Batch points at its Client, and the record is the argument of the
// client's runtime.AddCleanup — a record that reached the client would
// keep it, and every System it touched, alive for good.
type batchStage struct {
	reqs []Args
}

// NewBatch creates a batch for ep with room for capacity staged
// requests (a capacity <= 0 defaults to the shard ring size). The
// buffer grows if Add outruns it; growth is amortized and off the warm
// path.
func (c *Client) NewBatch(ep EntryPointID, capacity int) *Batch {
	if capacity <= 0 {
		capacity = defaultAsyncQueueCap
	}
	b := &Batch{c: c, ep: ep, batchStage: &batchStage{reqs: make([]Args, 0, capacity)}}
	// File the staging buffer on the ownership record (owner.go) so the
	// scavenger can settle staged payload leases if the client dies
	// before Flush. A scavenged client cannot file (the gate is
	// terminal); its batch stays empty because Add declines too.
	_ = c.rec.trackBatch(b.batchStage)
	return b
}

// SetNotify sets a completion channel: every request in subsequent
// flushes delivers one notification on done. As with AsyncCallNotify,
// done should be buffered (at least one batch deep); unready channels
// cost the servicing worker a bounded wait and may drop notifications
// (ShardStats.NotifyDrops).
func (b *Batch) SetNotify(done chan<- struct{}) { b.done = done }

// SetDeadline arms a per-request deadline for subsequent flushes: each
// flushed request must *start executing* within d of its Flush, or it
// is settled as expired (counted in ShardStats.DeadlineExpirations,
// recorded as timeout evidence for the service's health gate, and its
// notification still delivered). A d <= 0 clears the deadline. The
// deadline bounds queueing delay, not handler runtime — a handler
// already running is never interrupted.
func (b *Batch) SetDeadline(d time.Duration) { b.ttl = d }

// Len reports the number of staged requests.
func (b *Batch) Len() int { return len(b.reqs) }

// Add stages one request. The warm path is the record-gate CAS pair
// (uncontended, on the client's own record line), a bounds check, and
// a copy into the retained buffer. A request added to a scavenged
// client's batch is dropped; its payload leases were settled by the
// scavenger's drain of the record — the staging buffer and the tracked
// leases belong to the scavenger once the client is dead.
//
//ppc:hotpath
func (b *Batch) Add(args *Args) {
	rec := b.c.rec
	// The record gate brackets every touch of the staging buffer: the
	// scavenger drains b.reqs under the terminal gate, so an ungated
	// Add could stage a request behind (or race) that drain.
	if rec.enter() != nil {
		// Scavenged: the drain already released every lease this client
		// had tracked, the ones attached to args among them (same rule as
		// consumeArgs) — releasing them here would be a second release.
		return
	}
	if n := payloadCount(args[OpFlagsWord]); n != 0 {
		// The staged copy owns the attached leases from here; untrack
		// them from the record so the scavenger settles them through the
		// batch drain, not twice.
		for i := 0; i < n; i++ {
			rec.untrackLease(PayloadRef(args[payloadWord(i)]))
		}
	}
	if len(b.reqs) == cap(b.reqs) {
		b.grow()
	}
	b.reqs = b.reqs[:len(b.reqs)+1]
	b.reqs[len(b.reqs)-1] = *args
	// The staged copy owns any attached payload leases from here (Flush
	// settles a rejected tail; workers settle accepted requests); strip
	// the caller's descriptor count so the same block can stage the next
	// request without double-releasing.
	transferPayloads(args)
	rec.leave()
}

// grow doubles the staging buffer.
//
//ppc:coldpath -- amortized buffer growth, off the warm Add path
func (b *Batch) grow() {
	next := make([]Args, len(b.reqs), 2*cap(b.reqs)+1)
	copy(next, b.reqs)
	b.reqs = next
}

// Flush submits every staged request with one admission and resets the
// batch for reuse. It returns how many requests were accepted; when
// the ring stays full past the bounded overload wait, the tail is
// rejected with ErrBackpressure (accepted < Len() at entry), and a
// kill or close rejects the whole batch. Accepted requests follow the
// usual async lifecycle: soft Kill waits for them, hard Kill discards
// the still-queued ones, Close drains them.
//
//ppc:hotpath
func (b *Batch) Flush() (int, error) {
	c := b.c
	rec := c.rec
	// The flush holds the record gate end to end: the staging buffer
	// must not be drained by the scavenger mid-submission. A scavenged
	// client's Flush fails terminally.
	if err := rec.enter(); err != nil {
		return 0, err
	}
	if c.tenant != 0 && len(b.reqs) > 0 {
		// The whole batch is charged against the tenant bucket at once:
		// a half-admitted batch would make the accepted count lie about
		// which requests were throttled. A shed batch is reset like a
		// killed one.
		if err := c.admitTenantBatch(b.reqs); err != nil {
			b.reqs = b.reqs[:0]
			rec.leave()
			return 0, err
		}
		if rec.state.Load() != crLive {
			// Abandoned between staging and admission (Abandon is the one
			// cross-goroutine entry point on a Client): refund the tenant
			// tokens just charged, settle the staged leases, and fail —
			// the scavenger cannot drain while the owner holds the gate.
			if tb := c.shard.tenantBucketFor(c.tenant); tb != nil {
				tb.credit(int64(len(b.reqs)))
			}
			c.shard.releaseBatchPayloads(b.reqs)
			b.reqs = b.reqs[:0]
			rec.leave()
			return 0, ErrClientAbandoned
		}
	}
	var deadline int64
	if b.ttl > 0 {
		deadline = time.Now().Add(b.ttl).UnixNano()
	}
	n, err := c.sys.asyncBatchOn(c.shard, b.ep, b.reqs, c.program, b.done, deadline, c.lane)
	b.reqs = b.reqs[:0]
	rec.leave()
	return n, err
}

// AsyncBatch submits argss as one batch of asynchronous calls to ep:
// one admission check and one worker wakeup for the whole slice,
// instead of one of each per request. Semantics per request match
// AsyncCall; the return value reports how many leading requests were
// accepted (all of them iff err is nil).
//
//ppc:hotpath
func (c *Client) AsyncBatch(ep EntryPointID, argss []Args) (int, error) {
	if err := c.noteBatchPayloads(argss); err != nil {
		return 0, err
	}
	if c.tenant != 0 && len(argss) > 0 {
		if err := c.admitTenantBatch(argss); err != nil {
			return 0, err
		}
	}
	return c.sys.asyncBatchOn(c.shard, ep, argss, c.program, nil, 0, c.lane)
}

// admitTenantBatch charges len(argss) tokens against the client's
// tenant bucket, all or nothing. On a shed the whole batch's payload
// leases settle here — the batch never reaches admission.
//
//ppc:hotpath
func (c *Client) admitTenantBatch(argss []Args) error {
	b := c.shard.tenantBucketFor(c.tenant)
	if b == nil || b.takeN(int64(len(argss))) {
		return nil
	}
	if b.takeSlowN(int64(len(argss)), &c.shard.clock) {
		return nil
	}
	c.shard.tenantThrottled.Add(int64(len(argss)))
	c.shard.releaseBatchPayloads(argss)
	return ErrShed
}

// asyncBatchOn is the batched analogue of callOn's async half: admit
// the whole batch with one increment-then-check (so a soft kill either
// sees the batch in flight and waits, or flips the state first and the
// batch backs out), hand it to the shard ring, then settle the
// accounting for any rejected tail.
//
//ppc:hotpath
func (s *System) asyncBatchOn(sh *shard, ep EntryPointID, argss []Args, program uint32, done chan<- struct{}, deadline int64, lane Lane) (int, error) {
	if len(argss) == 0 {
		return 0, nil
	}
	// Rejected requests settle their attached payload leases, same
	// contract as the single-call paths: a whole-batch rejection
	// releases every entry, a partial acceptance releases the tail.
	if int(ep) >= MaxEntryPoints {
		sh.releaseBatchPayloads(argss)
		return 0, ErrBadEntryPoint
	}
	e := sh.lookup(ep)
	if e == nil {
		sh.releaseBatchPayloads(argss)
		return 0, ErrBadEntryPoint
	}
	svc := e.svc
	if svc.state.Load() != svcActive {
		sh.releaseBatchPayloads(argss)
		return 0, ErrKilled
	}
	counters := e.counters
	probe := false
	if svc.health != nil {
		var gerr error
		if probe, gerr = svc.gateAdmit(counters); gerr != nil {
			sh.releaseBatchPayloads(argss)
			return 0, gerr
		}
	}
	counters.asyncAdm.Add(int64(len(argss)))
	if svc.state.Load() != svcActive {
		svc.backOutN(counters, len(argss))
		if probe {
			svc.settleProbe(counters, ErrKilled)
		}
		sh.releaseBatchPayloads(argss)
		return 0, ErrKilled
	}
	n, err := sh.submitBatch(s, svc, argss, program, done, deadline, lane)
	if n < len(argss) {
		svc.unadmit(counters, len(argss)-n)
		sh.releaseBatchPayloads(argss[n:])
	}
	// The ring's copies own the accepted entries' leases; strip the
	// caller-side descriptor counts so a reused slice cannot release
	// them again.
	for i := 0; i < n; i++ {
		transferPayloads(&argss[i])
	}
	if probe && n == 0 {
		// The whole batch was rejected before reaching the ring: no
		// request will ever produce worker-side evidence, so the probe
		// settles here (accepted requests settle at dequeue instead).
		svc.settleProbe(counters, err)
	}
	return n, err
}
