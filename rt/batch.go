package rt

import "time"

// Asynchronous submission — the paper's amortized asynchronous calls
// (§4.4) carried to the ring: one admission check and one worker wakeup
// cover an arbitrary number of requests, so the per-request cost of a
// burst approaches one slot write. Every asynchronous entry point is this
// one path (Client.async, then shard.submit); the AsyncCall family submits
// a batch of one over the caller's own argument block.
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
// nothing: the reap (owner.go) settles the leases, and Flush fails. A request
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
// rejected with ErrBackpressure (accepted < Len() at entry); a kill
// rejects the whole batch and a Close that arrives mid-flush the tail
// (ErrClosed). Accepted requests follow the usual async lifecycle: soft
// Kill waits for them, hard Kill discards the still-queued ones, Close
// drains them. On an abandoned client Flush fails terminally and submits
// nothing; each staged lease is released once, by Flush or by the
// reap, whichever takes it out of its slot.
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

// async is every asynchronous submission — the four AsyncCall forms (a
// batch of one), AsyncBatch and Batch.Flush: the preflight and the entry
// every call makes, then the whole submission admitted with one
// increment-then-check (so a soft kill either sees it in flight and
// waits, or flips the state first and it backs out here), handed to the
// lane's ring, and its rejected tail failed. The in-flight count covers a
// request from acceptance until the worker finishes it; the same
// increment is the AsyncCalls count, so acceptance costs one counter RMW
// for the lot. ttl > 0 bounds each request's time in the ring.
//
//ppc:hotpath
func (c *Client) async(ep EntryPointID, argss []Args, done chan<- struct{}, ttl time.Duration) (int, error) {
	sh := c.shard
	// One plain request — no payload, no tenant — has only preflight's
	// life check to make, and makes it here on one combined branch.
	if len(argss) != 1 || argss[0][OpFlagsWord]&payloadCountMask != 0 || c.tenant != 0 {
		if err := c.preflight(argss); err != nil || len(argss) == 0 {
			return 0, err
		}
	} else if c.rec.state.Load() != crLive {
		return 0, c.ownerLost(argss)
	}
	cr, err := sh.enter(ep, argss, nil)
	if err != nil {
		return 0, err
	}
	var deadline int64
	if ttl > 0 {
		deadline = time.Now().Add(ttl).UnixNano()
	}
	svc, counters := cr.svc, cr.counters
	lr := sh.laneFor(c.lane, svc)
	counters.asyncAdm.Add(int64(len(argss)))
	if svc.state.Load() != svcActive {
		svc.backOutN(counters, len(argss))
		return 0, cr.fail(sh, argss, ErrKilled)
	}
	n, err := sh.submit(c.sys, svc, lr, argss, c.program, done, deadline)
	// The ring's copies own the accepted entries' leases (the worker
	// settles them at dequeue); strip the caller-side descriptor counts
	// so a reused block cannot release them again.
	for i := 0; i < n; i++ {
		transferPayloads(&argss[i])
	}
	if n < len(argss) {
		svc.unadmit(counters, len(argss)-n)
		// A carried probe fails with the tail only if nothing reached the
		// ring: accepted requests settle the gate at dequeue, and a
		// hard-kill discard falls back to the probe lease (gateAdmitSlow).
		cr.probe = cr.probe && n == 0
		return n, cr.fail(sh, argss[n:], err)
	}
	return n, err
}
