package rt

import "time"

// Asynchronous submission — the paper's amortized asynchronous calls
// (§4.4) carried to the ring: one admission check, one submitting
// window, and one worker wakeup cover an arbitrary number of requests,
// so the per-request cost of a burst approaches one slot write. Every
// asynchronous entry point is this one path (Client.async, then
// System.asyncOn, then shard.submit); the AsyncCall family submits a
// batch of one over the caller's own argument block.
//
// Two batch shapes are offered: Client.AsyncBatch submits a caller-owned
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
	reqs []Args
}

// NewBatch creates a batch for ep with room for capacity staged
// requests (a capacity <= 0 defaults to the size of the ring it flushes
// into). The buffer grows if Add outruns it; growth is amortized and
// off the warm path.
func (c *Client) NewBatch(ep EntryPointID, capacity int) *Batch {
	if capacity <= 0 {
		capacity = c.shard.lanes[0].ring.capacity() // every lane's ring is the same size
	}
	return &Batch{c: c, ep: ep, reqs: make([]Args, 0, capacity)}
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

// Add stages one request: a life check, a bounds check, and a copy into
// the retained buffer — no locked instruction. Payload leases attached
// to args stay filed in the client's lease slots (owner.go) until Flush
// claims them, so a client that dies with requests staged strands
// nothing: the scavenger settles the leases, and Flush fails. A request
// added to a dead client's batch is dropped for the same reason.
//
//ppc:hotpath
//ppc:rmwbudget(0)
func (b *Batch) Add(args *Args) {
	if b.c.rec.state.Load() != crLive {
		return
	}
	if len(b.reqs) == cap(b.reqs) {
		b.grow()
	}
	b.reqs = b.reqs[:len(b.reqs)+1]
	b.reqs[len(b.reqs)-1] = *args
	// The staged copy carries any attached payload descriptors from here
	// (Flush claims their leases; workers settle accepted requests);
	// strip the caller's descriptor count so the same block can stage
	// the next request without double-releasing.
	transferPayloads(args)
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
// the still-queued ones, Close drains them. On an abandoned client
// Flush fails terminally and submits nothing; each staged lease is
// released once, by Flush or by the scavenger, whichever takes it out
// of its slot.
//
//ppc:hotpath
//ppc:rmwbudget(1) -- the batch's one admission; the ring leg is submit's
func (b *Batch) Flush() (int, error) {
	n, err := b.c.async(b.ep, b.reqs, b.done, b.ttl)
	b.reqs = b.reqs[:0]
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
	return c.async(ep, argss, nil, 0)
}

// async is the client half of every asynchronous submission — the four
// AsyncCall forms (a batch of one), AsyncBatch and Batch.Flush: claim
// every attached lease out of the ownership record, check the client is
// still alive (the claimed leases are this submission's to release if it
// is not), charge the whole submission against the tenant bucket at
// once, stamp the queueing deadline, then admit and publish. ttl > 0
// bounds each request's time in the ring (AsyncCallDeadline).
//
//ppc:hotpath
func (c *Client) async(ep EntryPointID, argss []Args, done chan<- struct{}, ttl time.Duration) (int, error) {
	for i := range argss {
		if argss[i][OpFlagsWord]&payloadCountMask == 0 {
			continue // the payload-free warm path: one masked load per request
		}
		if err := c.consumeArgs(&argss[i]); err != nil {
			// A claim lost to the scavenger: nothing is submitted, the
			// requests already claimed are released, the rest are the
			// scavenger's.
			c.shard.releaseBatchPayloads(argss[:i])
			return 0, err
		}
	}
	if c.rec.state.Load() != crLive {
		c.shard.releaseBatchPayloads(argss)
		return 0, ErrClientAbandoned
	}
	if len(argss) == 0 {
		return 0, nil
	}
	if c.tenant != 0 {
		if err := c.admitTenant(argss); err != nil {
			return 0, err
		}
	}
	var deadline int64
	if ttl > 0 {
		deadline = time.Now().Add(ttl).UnixNano()
	}
	return c.sys.asyncOn(c.shard, ep, argss, c.program, done, deadline, c.lane)
}

// asyncOn is the system half: admit the whole submission with one
// increment-then-check (so a soft kill either sees it in flight and
// waits, or flips the state first and it backs out here), hand it to the
// lane's ring, then settle the accounting for any rejected tail. The
// in-flight count covers a request from acceptance until the worker
// finishes it; the same increment is the AsyncCalls count, so acceptance
// costs one counter RMW for the lot.
//
//ppc:hotpath
func (s *System) asyncOn(sh *shard, ep EntryPointID, argss []Args, program uint32, done chan<- struct{}, deadline int64, lane Lane) (int, error) {
	// Rejected requests settle their attached payload leases, same
	// contract as the synchronous paths: a whole rejection releases every
	// entry, a partial acceptance releases the tail.
	e, err := sh.resolve(ep)
	if err != nil {
		sh.releaseBatchPayloads(argss)
		return 0, err
	}
	svc := e.svc
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
	n, err := sh.submit(s, svc, sh.laneFor(lane, svc), argss, program, done, deadline)
	if n < len(argss) {
		svc.unadmit(counters, len(argss)-n)
		sh.releaseBatchPayloads(argss[n:])
	}
	// The ring's copies own the accepted entries' leases (the worker
	// settles them at dequeue); strip the caller-side descriptor counts
	// so a reused block cannot release them again.
	for i := 0; i < n; i++ {
		transferPayloads(&argss[i])
	}
	if probe && n == 0 {
		// Nothing reached the ring: no request will ever produce
		// worker-side evidence, so the probe settles here or the stripe
		// sheds until the probe lease expires. Accepted requests settle the
		// gate at dequeue (recordOutcome / recordTimeout); the exit that
		// bypasses those — a hard-kill discard — falls back to the probe
		// lease in gateAdmitSlow.
		svc.settleProbe(counters, err)
	}
	return n, err
}
