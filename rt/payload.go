package rt

import "fmt"

// Scatter-gather payload descriptors — the zero-copy large-payload
// path (ROADMAP item 4). The paper's argument is that IPC should move
// data at memory speed; an 8-word Args block forces any real payload
// through a side channel, which is exactly the serialization cliff the
// shared-memory snippets quantify at ~100x for large buffers. The fix
// is the classic shared-memory idiom: the payload bytes live in a
// per-shard arena (arena.go), and the call carries only *descriptors*
// — packed {offset, length, generation} words riding inside the
// existing Args block, so the wire format (ring slots, batch staging,
// deadline tickets) does not change at all. The handler reads the
// caller's bytes in place through Ctx.Payload; nothing is copied and
// nothing is allocated on the warm path.
//
// Descriptor lifetime follows the call, not the caller: attaching a
// payload transfers its arena lease to the call, and whichever
// goroutine settles the call releases it — the caller's own goroutine
// for plain synchronous calls, the async worker for ring requests
// (including hard-kill discards and queue-deadline expiries), and the
// deadline executor for CallDeadline/CallContext, where release after
// handler return is what keeps an orphaned handler's view valid
// through quarantine (see docs/INVARIANTS.md: lease outlives
// quarantine). A payload is therefore consumed by exactly one call;
// re-attaching a stale ref is caught by the generation check and the
// view fails closed (nil).
//
// Offsets, not pointers: a PayloadRef encodes a stable arena offset,
// so the same descriptor words remain meaningful across the ring's
// slot copies today and across an mmap'd shared segment tomorrow
// (ROADMAP item 1) — the cross-process track reuses this layout
// unchanged.

// MaxPayloadSegs is the scatter-gather fan-in: up to this many payload
// segments ride in one Args block (words NumArgWords-2 downward, see
// payloadWord). Three segments cover the common header/body/trailer
// split without squeezing the caller's own argument words.
const MaxPayloadSegs = 3

// PayloadRef is a packed scatter-gather descriptor: one 64-bit word
// carrying the segment's arena offset (in cache-line units), its byte
// length, and the owning slab's generation at lease time.
//
//	bits 63..48  gen    (16 bits — slab generation, validates the lease)
//	bits 47..22  off    (26 bits — arena offset in 64-byte units: 4 GiB)
//	bit  21      staged (the segment is in flight on the copy-offload lane)
//	bits 20..0   len    (segment bytes: < 2 MiB, one slab)
//
// The zero PayloadRef is never valid (a live segment has nonzero len).
type PayloadRef uint64

const (
	payloadLenBits = 22 // staged flag + 21 length bits
	payloadOffBits = 26
	payloadGenBits = 16

	payloadStagedBit = 1 << 21
	payloadLenMask   = payloadStagedBit - 1
	payloadOffMask   = 1<<payloadOffBits - 1
	payloadGenMask   = 1<<payloadGenBits - 1

	payloadOffShift = payloadLenBits
	payloadGenShift = payloadLenBits + payloadOffBits

	// MaxPayloadBytes bounds one segment: the len field's range, which
	// also keeps a line-rounded segment within one 2 MiB arena slab.
	MaxPayloadBytes = payloadLenMask
)

// packPayloadRef builds a descriptor word from a slab generation, a
// global arena byte offset (64-aligned), and a byte length.
//
//ppc:hotpath
func packPayloadRef(gen uint32, byteOff int64, n int) PayloadRef {
	return PayloadRef(uint64(gen&payloadGenMask)<<payloadGenShift |
		uint64(byteOff>>lineShift)<<payloadOffShift |
		uint64(n))
}

func (r PayloadRef) gen() uint32 { return uint32(uint64(r)>>payloadGenShift) & payloadGenMask }
func (r PayloadRef) byteOff() int64 {
	return int64(uint64(r)>>payloadOffShift&payloadOffMask) << lineShift
}
func (r PayloadRef) staged() bool { return uint64(r)&payloadStagedBit != 0 }

// Len returns the segment's byte length (0 for the zero ref).
func (r PayloadRef) Len() int { return int(uint64(r) & payloadLenMask) }

// Payload metadata rides in the conventional op/flags word: the
// segment count occupies the top three bits of the flags half (bits
// 31..29 of the low word). Services that use payloads give up those
// three flag bits; SetOp and SetRC overwrite the whole word, so attach
// payloads AFTER setting the op — AttachPayload documents the order.
const (
	payloadCountShift = 29
	payloadCountMask  = uint64(7) << payloadCountShift
)

// payloadCount reads the attached-segment count from an op/flags word.
//
//ppc:hotpath
func payloadCount(w uint64) int { return int(w & payloadCountMask >> payloadCountShift) }

// payloadWord is the Args index carrying segment i: descriptors fill
// the tail words below the op/flags word (6, 5, 4 at the default
// NumArgWords), leaving the leading words to the caller.
func payloadWord(i int) int { return OpFlagsWord - 1 - i }

// AttachPayload appends one payload segment to the argument block,
// transferring the segment's arena lease to the next call these args
// are submitted with. Call it after SetOp/SetRC — both rewrite the
// op/flags word the segment count lives in. It panics on a zero ref or
// on overflowing MaxPayloadSegs, both caller bugs on the order of
// indexing out of range.
//
//ppc:hotpath
func (a *Args) AttachPayload(ref PayloadRef) {
	if ref == 0 {
		panic("rt: attaching zero PayloadRef")
	}
	n := payloadCount(a[OpFlagsWord])
	if n >= MaxPayloadSegs {
		panic("rt: too many payload segments")
	}
	a[payloadWord(n)] = uint64(ref)
	a[OpFlagsWord] = a[OpFlagsWord]&^payloadCountMask | uint64(n+1)<<payloadCountShift
}

// NumPayloads reports how many payload segments are attached.
func (a *Args) NumPayloads() int { return payloadCount(a[OpFlagsWord]) }

// PayloadRefAt returns the i-th attached descriptor (zero if out of
// range).
func (a *Args) PayloadRefAt(i int) PayloadRef {
	if i < 0 || i >= payloadCount(a[OpFlagsWord]) {
		return 0
	}
	return PayloadRef(a[payloadWord(i)])
}

// payloadSet is a call's captured descriptor set. The settling paths
// capture it BEFORE the handler runs (dispatch), so a handler that
// scribbles on the descriptor words or the op/flags word cannot leak
// or double-release a lease.
type payloadSet struct {
	n    int
	refs [MaxPayloadSegs]PayloadRef
}

// capturePayloads snapshots the attached descriptors out of args.
// The no-payload case — every call of a service that never attaches —
// is one masked load and a predictable branch.
//
//ppc:hotpath
func capturePayloads(args *Args, ps *payloadSet) int {
	n := payloadCount(args[OpFlagsWord])
	ps.n = n
	if n != 0 {
		capturePayloadRefs(args, ps, n)
	}
	return n
}

// capturePayloadRefs copies the descriptor words; split out so the
// no-payload fast path pays only the count check.
//
//ppc:hotpath
func capturePayloadRefs(args *Args, ps *payloadSet, n int) {
	if n > MaxPayloadSegs {
		n = MaxPayloadSegs
		ps.n = n
	}
	for i := 0; i < n; i++ {
		ps.refs[i] = PayloadRef(args[payloadWord(i)])
	}
}

// releasePayloads settles a captured descriptor set against the
// shard's arena and clears the count bits in args so the same block
// cannot release twice through a layered path.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (sh *shard) releasePayloads(args *Args, ps *payloadSet) {
	for i := 0; i < ps.n; i++ {
		sh.arena.release(ps.refs[i])
	}
	ps.n = 0
	args[OpFlagsWord] &^= payloadCountMask
}

// transferPayloads strips the caller-side descriptor count after args
// has been copied into another owner (a ring slot, a batch stage, a
// deadline ticket): the copy carries the leases from here on, and a
// stale count in the caller's block would double-release them. The
// no-payload path pays one masked load and an untaken branch.
//
//ppc:hotpath
func transferPayloads(args *Args) {
	if args[OpFlagsWord]&payloadCountMask != 0 {
		args[OpFlagsWord] &^= payloadCountMask
	}
}

// releaseArgsPayloads releases descriptors still attached to an
// argument block whose call failed before dispatch could capture them
// (bad entry point, kill backout, health shed, rejected submission).
// The attached lease is consumed by the call whatever its outcome, so
// every error return releases exactly as a completed call would.
//
//ppc:coldpath -- error-path settlement; the call is already failing
func (sh *shard) releaseArgsPayloads(args *Args) {
	n := payloadCount(args[OpFlagsWord])
	if n == 0 {
		return
	}
	var ps payloadSet
	ps.n = n
	capturePayloadRefs(args, &ps, n) // re-clamps ps.n if the count bits are garbage
	sh.releasePayloads(args, &ps)
}

// releaseBatchPayloads settles the leases still attached to every
// request in argss — the rejected tail (or the whole batch) of a
// batched submission that will never reach a worker.
//
//ppc:coldpath -- error-path settlement for batch rejections
func (sh *shard) releaseBatchPayloads(argss []Args) {
	for i := range argss {
		sh.releaseArgsPayloads(&argss[i])
	}
}

// Payload returns a zero-copy view of the i-th payload segment
// attached to the call being serviced: a slice straight into the
// shard's arena — no copy, no allocation. The view is valid for the
// duration of the handler; the lease is released when the call
// settles, after the handler returns (for orphaned deadline calls,
// after the *handler* returns, not the caller — the view outlives the
// caller's ErrDeadline). The descriptors come from the set captured at
// dispatch, so a handler scribbling on the argument words cannot
// redirect its own views; a descriptor that is stale anyway (a caller
// re-submitted a consumed ref and its slab has recycled) yields nil —
// the view fails closed, never into another call's bytes. For a
// segment staged through the copy-offload lane the view waits for the
// staging copy to land before returning.
//
//ppc:hotpath
func (c *Ctx) Payload(i int) []byte {
	if i < 0 || i >= c.pay.n {
		return nil
	}
	return c.cd.shard.arena.view(c.pay.refs[i])
}

// NumPayloads reports how many payload segments the call being
// serviced carries.
func (c *Ctx) NumPayloads() int { return c.pay.n }

// AllocPayload leases n bytes of cache-line-aligned arena memory on
// the client's shard. The caller fills the returned buffer, attaches
// the ref to an Args block (Args.AttachPayload), and submits; the
// lease is released when that call settles. A payload allocated and
// then abandoned must be released with ReleasePayload or its slab
// never recycles. The warm path is two locked instructions — the
// arena's lease-and-claim fetch-add and the record's slot store — no
// lock, no heap allocation.
//
//ppc:hotpath
//ppc:rmwbudget(2)
func (c *Client) AllocPayload(n int) (PayloadRef, []byte, error) {
	if err := c.sys.fireFault(faultSiteArena); err != nil {
		return 0, nil, err
	}
	ref, buf, err := c.shard.arena.alloc(n)
	if err == nil {
		err = c.trackLease(ref)
	}
	if err != nil {
		return 0, nil, err
	}
	return ref, buf, nil
}

// ReleasePayload returns an unattached payload lease to the arena —
// the abort path for a payload allocated but never submitted. It
// releases only a lease it can still claim (owner.go): for a payload a
// submission already consumed, a second ReleasePayload of the same ref,
// or a client whose death has settled it, it is a quiet no-op.
//
//ppc:coldpath -- abort path for an abandoned payload
func (c *Client) ReleasePayload(ref PayloadRef) {
	if c.rec.claimLease(ref) {
		c.shard.arena.release(ref)
	}
}

// AllocPayload leases arena memory from inside a handler — for nested
// calls that attach payloads of their own. Same contract as
// Client.AllocPayload.
func (c *Ctx) AllocPayload(n int) (PayloadRef, []byte, error) {
	return c.cd.shard.arena.alloc(n)
}

// AttachBytes copies data into a fresh arena segment and attaches the
// descriptor to args: the compatibility path for callers whose bytes
// do not already live in the arena (the zero-copy discipline is
// AllocPayload — produce the bytes in place and skip this copy
// entirely). Above the shard's offload threshold the copy is staged on
// the shard's copy-offload worker instead of the caller: AttachBytes
// returns after publishing a copy descriptor, and the handler-side
// view waits for the staged bytes to land. The caller must not modify
// data until the call settles. When the offload lane is saturated (or
// disabled) the copy falls back inline on the caller, and on a closed
// system the caller lands its own staged copy — no new error surfaces;
// the ErrBackpressure discipline of the call paths is untouched.
//
//ppc:hotpath
func (c *Client) AttachBytes(args *Args, data []byte) error {
	sh := c.shard
	if err := c.sys.fireFault(faultSiteArena); err != nil {
		return err
	}
	var ref PayloadRef
	var err error
	if sh.offload.threshold > 0 && len(data) >= sh.offload.threshold {
		ref, err = sh.offloadCopy(data)
	} else {
		var buf []byte
		if ref, buf, err = sh.arena.alloc(len(data)); err == nil {
			copy(buf, data)
		}
	}
	// Track the fresh lease on the ownership record like AllocPayload
	// does: it stays there until the submission carrying args claims it
	// (preflight), so a client that dies between attach and submit
	// cannot strand the segment.
	if err == nil {
		err = c.trackLease(ref)
	}
	if err != nil {
		return err
	}
	args.AttachPayload(ref)
	return nil
}

// Payload errors.
var (
	// ErrPayloadTooLarge: AllocPayload/AttachBytes with a size outside
	// (0, MaxPayloadBytes] — a segment must fit one arena slab.
	ErrPayloadTooLarge = fmt.Errorf("rt: payload exceeds arena slab capacity")
	// ErrArenaFull: the shard's arena has grown to its offset-space
	// bound and every slab is pinned by outstanding leases — almost
	// always leaked leases (payloads allocated but neither submitted
	// nor released).
	ErrArenaFull = fmt.Errorf("rt: payload arena exhausted (leaked leases?)")
)
