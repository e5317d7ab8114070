package rt

import "sync/atomic"

// asyncRing is the shard's bounded lock-free request queue: a
// Vyukov-style ring of sequence-numbered slots, not a Go channel, whose
// send takes the runtime's hchan lock and parks through the scheduler —
// the hidden serialization the paper's design rules forbid. Submission
// is one CAS on the enqueue cursor plus an in-place slot write,
// consumption one CAS on the dequeue cursor plus an in-place slot read.
//
// Protocol (Vyukov bounded MPMC, which covers our many-producers /
// few-consumers shape): each slot carries a sequence number, stored less
// the slot's index — as its ticket's lap, pos&^mask — so a zeroed array
// is a ring on lap 0. A slot is writable when seq == lap (pos the
// producer's ticket), readable when seq == lap+1 (pos the consumer's
// ticket); the producer publishes by storing lap+1 and the consumer
// recycles the slot for the next lap by storing lap+size. Tickets are
// claimed by CAS on the cursors, so per-producer FIFO follows from each
// goroutine's tickets being acquired in program order and consumers
// draining in ticket order. A consumer never skips an unpublished slot —
// it reports the ring empty instead and retries later — so nothing is
// lost or reordered past a slow producer. The slots are allocated on the
// shard's first submission (shard.provisionRings); until one holds a
// ticket, only the cursors and the mask are read.
//
// The enqueue cursor also carries Close: shard.close sets ringClosed in
// it, and from then on it never advances — a ticket CAS from a read before
// the bit fails on the changed word, a read after it sees the bit — so
// every ticket of a closed ring was claimed before the bit and is drained
// before Close returns (docs/INVARIANTS.md). Push pays one test of the
// cursor value it has already loaded.
//
// The cursors live on their own cache lines so producers (hitting enq)
// and consumers (hitting deq) do not false-share. The layout is
// machine-checked: //ppc:padded makes ppclint verify, from go/types
// offsets, that each //ppc:hotline cursor owns its 64-byte line and
// that the struct tiles cache lines exactly when embedded 64-aligned.
//
//ppc:padded
type asyncRing struct {
	mask  uint64
	slots []ringSlot // nil until the shard's first submission
	_     [32]byte   // fill line 0: cursors start on their own lines

	//ppc:atomic
	//ppc:hotline
	enq atomic.Uint64
	_   [56]byte
	//ppc:atomic
	//ppc:hotline
	deq atomic.Uint64
	_   [56]byte
}

// ringClosed is the closed bit of asyncRing.enq; the ticket count is the
// rest of the word.
const ringClosed uint64 = 1 << 63

// ringSlot is one sequence-numbered cell. The request is stored in
// place — submission writes it once and the draining worker reads it
// once, with the seq store/load pair ordering the two.
type ringSlot struct {
	// seq is the slot's publish word, kept less the slot's index: a store
	// of lap+1 releases the request the producer just wrote in place, and
	// the recycle store (lap+size) releases the cleared slot back to the
	// producers. ppclint's ordering analyzer checks both edges.
	//
	//ppc:atomic
	//ppc:publishes(req)
	seq atomic.Uint64
	req asyncReq
}

// ringMask is the mask of the smallest power-of-two ring holding capacity
// requests. The minimum is two slots: with one, the producer's published
// sequence (lap+1) is the next lap's writable one, and a full ring would
// accept a push.
func ringMask(capacity int) uint64 {
	size := 2
	for size < capacity {
		size <<= 1
	}
	return uint64(size - 1)
}

// push publishes one request: claim a ticket with a CAS on the enqueue
// cursor, write the slot fields in place straight from the caller's
// argument block (no intermediate request struct is materialized),
// publish the sequence number. Reports false when the ring is full
// (the slot a lap ahead has not been consumed yet) — the caller's
// backpressure half — or closed, which the caller tells apart (closed)
// on that already-failing branch. The closed test comes first: under the
// bit the cursor would read as a lost ticket race, forever.
//
//ppc:hotpath
func (r *asyncRing) push(sys *System, svc *Service, args *Args, prog uint32, done chan<- struct{}, deadline int64) bool {
	pos := r.enq.Load()
	for {
		if pos&ringClosed != 0 {
			return false
		}
		slot := &r.slots[pos&r.mask]
		lap := pos &^ r.mask
		switch d := int64(slot.seq.Load()) - int64(lap); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.req.sys = sys
				slot.req.svc = svc
				// Payload descriptors (payload.go) ride inside the args
				// words, so this one copy also transfers any attached
				// arena leases to the request — zero wire-format change.
				slot.req.args = *args
				slot.req.prog = prog
				slot.req.done = done
				slot.req.deadline = deadline
				if faultTagEnabled && sys != nil {
					// The stalled-producer window: the ticket is claimed
					// but the sequence not yet published. Only compiled in
					// under -tags faultinject; production builds fold the
					// whole branch away.
					_ = sys.fireFault(faultSiteRingPublish)
				}
				slot.seq.Store(lap + 1)
				return true
			}
			pos = r.enq.Load()
		case d < 0:
			return false // full: slot still holds last lap's request
		default:
			pos = r.enq.Load() // lost the ticket race; reload
		}
	}
}

// popBatch drains up to len(dst) published requests in ticket order —
// the batched dequeue: the consumer scans the published run, claims
// the whole run with a single CAS on the dequeue cursor, and only then
// copies the slots out, so the per-request cost of consumption is one
// slot copy and one sequence store — the cursor is touched once per
// batch, not once per request. Returns the number drained; 0 means the
// ring held no published request (it may hold slots claimed by
// producers that have not published yet — the caller retries or
// parks).
//
//ppc:hotpath
func (r *asyncRing) popBatch(dst []asyncReq) int {
	for {
		pos := r.deq.Load()
		// Scan the contiguous published run from pos.
		n := 0
		for n < len(dst) {
			if p := pos + uint64(n); r.slots[p&r.mask].seq.Load() != p&^r.mask+1 {
				break
			}
			n++
		}
		if n == 0 {
			if int64(r.slots[pos&r.mask].seq.Load())-int64(pos&^r.mask+1) > 0 {
				continue // another consumer claimed pos; reload the cursor
			}
			return 0 // head unpublished: empty (or a producer mid-publish)
		}
		if !r.deq.CompareAndSwap(pos, pos+uint64(n)) {
			continue // lost the claim race; rescan from the new cursor
		}
		// The run [pos, pos+n) is exclusively ours: it was published
		// before the claim, and producers cannot reuse a slot until its
		// sequence is recycled below.
		for i := 0; i < n; i++ {
			p := pos + uint64(i)
			slot := &r.slots[p&r.mask]
			dst[i] = slot.req
			slot.req.clearRefs() // drop refs for the GC
			slot.seq.Store(p&^r.mask + r.mask + 1)
		}
		return n
	}
}

// closed reports whether shard.close has closed the ring to producers.
func (r *asyncRing) closed() bool { return r.enq.Load()&ringClosed != 0 }

// empty reports whether the ring has no requests, published or in
// flight. A false return does not guarantee popBatch will find a
// published slot — a producer may be mid-publish — which is exactly
// the case the worker's spin loop covers.
//
//ppc:hotpath
func (r *asyncRing) empty() bool {
	return r.deq.Load() == r.enq.Load()&^ringClosed
}

// stalled reports whether the dequeue head is a claimed-but-unpublished
// slot: the ring is non-empty, yet no consumer can make progress until
// the producer that owns the head finishes its publish. This is the
// stall-visible dequeue check the shard watchdog uses — a transient
// true is normal (a producer mid-publish), a persistent one means the
// producer wedged inside the publish window.
//
//ppc:coldpath -- supervision probe, off the call path
func (r *asyncRing) stalled() bool {
	pos := r.deq.Load()
	if pos == r.enq.Load()&^ringClosed {
		return false
	}
	return int64(r.slots[pos&r.mask].seq.Load())-int64(pos&^r.mask+1) < 0
}

// length approximates the queue depth for diagnostics.
//
//ppc:coldpath -- stats snapshot, off the call path
func (r *asyncRing) length() int {
	d := int64(r.enq.Load()&^ringClosed) - int64(r.deq.Load())
	return int(min(max(d, 0), int64(r.mask+1)))
}

// capacity reports the ring size, allocated or not.
//
//ppc:coldpath -- stats snapshot, off the call path
func (r *asyncRing) capacity() int { return int(r.mask + 1) }
