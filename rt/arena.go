package rt

import (
	"sync"
	"sync/atomic"
)

// Per-shard scratch arenas — the memory behind the zero-copy payload
// path (payload.go). An arena is a set of cache-line-aligned slabs tiling
// a stable offset space; a payload segment is leased from the current
// slab with a few shard-local atomics, read in place by the handler, and
// released when the call settles. Reclamation is by lease count + epoch,
// not by GC: a slab whose leases have all been released moves on a
// generation — recycled if it was retired, rewound in place if it is
// still the allocation target — and any descriptor minted under the old
// generation fails validation from then on.
//
// The discipline mirrors the rest of the package:
//
//   - The warm alloc is an increment-then-check lease (the same shape
//     as call admission) that claims its region with the same fetch-add
//     — one locked instruction, no lock, no heap allocation, no line
//     shared with another shard.
//   - Memory is committed on first need, as the paper provisions its
//     pools on a miss: the first slab is the first request rounded up to
//     a power of two, 4 KiB at least, the rest 2 MiB; refill takes the
//     largest free slab that fits, so a kept first slab costs its size.
//   - Slab growth and recycling are strictly cold: a mutex-guarded
//     refill runs at most once per slabful of traffic, and the slab
//     table is republished copy-on-grow so lookups stay lock-free.
//   - Offsets are stable for the lifetime of the arena: slab i always
//     covers [i*arenaSlabBytes, (i+1)*arenaSlabBytes), whatever its own
//     size; a ref past a slab's real end fails validation. The cross-
//     process segment (ROADMAP item 1) keeps this property by mmap'ing
//     the same offset space.
//
// Lease lifetime: a lease taken by alloc is released exactly once —
// by ReleasePayload for a payload never submitted, by the settling
// path of the call it was attached to otherwise. The settle-side
// release runs after the handler returns even when the caller has long
// since gone (deadline orphans): the lease outlives quarantine, see
// docs/INVARIANTS.md.

const (
	// arenaLineBytes / lineShift: the cache-line quantum. Segment
	// offsets are line-aligned so PayloadRef's off field counts lines,
	// and so no two segments share a line (a handler reading one
	// payload never false-shares with the producer of another).
	arenaLineBytes = 64
	lineShift      = 6

	// arenaSlabShift / arenaSlabBytes: a slab's window in the offset
	// space and the size of every slab but a small first one; a first
	// slab is never smaller than arenaPageBytes (growLocked).
	arenaSlabShift = 21
	arenaSlabBytes = 1 << arenaSlabShift
	arenaPageBytes = 4 << 10

	// arenaMaxSlabs bounds the offset space at what PayloadRef's off
	// field can address (2^26 lines = 4 GiB).
	arenaMaxSlabs = (payloadOffMask + 1) << lineShift / arenaSlabBytes
)

// Slab lifecycle states.
const (
	// slabActive: the shard's current allocation target.
	slabActive uint32 = iota
	// slabSealed: retired from allocation (a refill replaced it);
	// waiting for its outstanding leases to drain.
	slabSealed
	// slabRecycling: the last lease drained and one releaser won the
	// recycle; generation bump and cursor reset are in progress.
	slabRecycling
	// slabFree: fully reset; a future refill may activate it.
	slabFree
)

// Packed slab word (arenaSlab.word): lease count on top, the 16-bit
// generation a PayloadRef carries in the middle, the allocation cursor
// in cache lines at the bottom. A slab holds at most 32 768 line-sized
// segments (plus a staging lease each, offload.go), inside 18 bits; a
// count driven below zero borrows off the top of the word and reads as
// negative, touching nothing else. Every allocator that finds the slab
// full overshoots the cursor once by at most a segment's 2^15 lines, so
// 30 bits absorb 32 768 of them racing on one full slab before a carry
// could reach the generation.
const (
	slabCursorBits = 30
	slabCursorMask = uint64(1)<<slabCursorBits - 1
	slabGenShift   = slabCursorBits
	slabLeaseShift = slabGenShift + payloadGenBits
	slabLeaseOne   = uint64(1) << slabLeaseShift
)

func slabLeases(w uint64) int64 { return int64(w) >> slabLeaseShift }
func slabGen(w uint64) uint32   { return uint32(w>>slabGenShift) & payloadGenMask }

// slabRewound is the word of an empty slab one generation on from w;
// descriptors minted under w's generation no longer validate.
func slabRewound(w uint64) uint64 {
	return uint64((slabGen(w)+1)&payloadGenMask) << slabGenShift
}

// arenaSlab is one leased slab. Slabs are reached through pointers
// (the arena's copy-on-grow table), so tail tiling matters less than
// internal striping: the packed word is written by every alloc and
// every release — the allocating caller, async workers, deadline
// executors, offload workers on other cores — so it owns a line, and
// the metadata the validation path only reads (buf, base, state) stays
// off it.
//
//ppc:padded
type arenaSlab struct {
	// buf is the slab's backing store, 4 KiB to 2 MiB, line-aligned
	// (TestArenaLayout); its length is the slab's capacity. base is the
	// slab's first byte's global arena offset. Both immutable after
	// construction.
	buf  []byte
	base int64
	// state is the lifecycle word (slabActive..slabFree); transitions
	// are sealed by refill, recycled by the last releaser's CAS.
	//
	//ppc:atomic
	state atomic.Uint32
	_     [28]byte // keep the packed word below off the metadata line

	// word packs lease count, generation and cursor (see above). The
	// generation wraps after 65536 drains; a stale ref surviving exactly
	// a multiple of that would falsely validate — accepted, like a
	// seqlock tag, because refs are transient call-lifetime tokens.
	//
	//ppc:atomic
	//ppc:hotline
	word atomic.Uint64
	_    [56]byte
}

// shardArena is one shard's arena: the current slab, the lock-free
// slab table, and the cold-path refill state. Reached via a pointer
// from the shard, so only internal striping matters: the cur pointer
// is loaded on every alloc and replaced only on refill; everything
// below it is cold.
//
//ppc:padded
type shardArena struct {
	// cur is the active slab — the one word the warm alloc loads.
	//
	//ppc:atomic
	//ppc:hotline
	cur atomic.Pointer[arenaSlab]
	_   [56]byte

	// tab is the copy-on-grow slab table: an immutable snapshot,
	// republished under mu whenever a slab is added. Lookups (view,
	// release) index it lock-free; slab i covers offsets
	// [i<<arenaSlabShift, (i+1)<<arenaSlabShift).
	//
	//ppc:atomic
	tab atomic.Pointer[[]*arenaSlab]

	// lane resolves staged (offload-pending) segments on the view path.
	lane *offloadLane

	// grows counts slab allocations (ShardStats.ArenaGrows) — growth,
	// unlike recycling, should plateau once traffic reaches steady
	// state.
	grows atomic.Int64

	// mu guards refill: slab activation, recycle harvesting, and table
	// growth. Never on the warm alloc path — at most once per slabful.
	mu sync.Mutex
	_  [32]byte // tile to whole lines: shardArena embeds 64-aligned in shard
}

// lines is the slab's capacity in cache lines.
func (s *arenaSlab) lines() uint64 { return uint64(len(s.buf)) >> lineShift }

// alloc leases n bytes: load the current slab, then take a lease and
// claim a line-aligned region with one fetch-add on its packed word —
// increment-then-check, the same idiom as call admission: count
// yourself in, re-validate the slab state, back out if a seal
// intervened. The word the add returns carries the generation the
// descriptor is minted under. One locked instruction; every miss (no
// slab yet, sealed under us, slab full) falls to allocSlow.
//
//ppc:hotpath
func (a *shardArena) alloc(n int) (PayloadRef, []byte, error) {
	if n <= 0 || n > MaxPayloadBytes {
		return 0, nil, ErrPayloadTooLarge
	}
	lines := uint64(n+arenaLineBytes-1) >> lineShift
	for {
		s := a.cur.Load()
		if s != nil {
			// Lease first, then validate: once the lease is visible nothing
			// can rewind or recycle the slab under the region just claimed
			// (both are CASes from a word with no lease out).
			w := s.word.Add(slabLeaseOne + lines)
			end := w & slabCursorMask
			if s.state.Load() == slabActive && end <= s.lines() {
				off := int64(end-lines) << lineShift
				return packPayloadRef(slabGen(w), s.base+off, n),
					s.buf[off : off+int64(n) : off+int64(lines)<<lineShift], nil
			}
		}
		if err := a.allocSlow(s, lines); err != nil {
			return 0, nil, err
		}
	}
}

// allocSlow is alloc's miss path for a request of lines: no slab yet, or
// the lease just taken on s landed on a sealed slab (refill already
// replaced cur: retry) or past the end of a full one. Drop that lease —
// the overshot cursor rewinds when the slab drains — and retry if the
// request now fits; refill otherwise, so a slab too small for the
// request is replaced, not retried.
//
//ppc:coldpath -- at most once per slabful of payload traffic
func (a *shardArena) allocSlow(s *arenaSlab, lines uint64) error {
	if s != nil {
		sealed := s.state.Load() != slabActive
		a.releaseSlab(s)
		if sealed || s.word.Load()&slabCursorMask+lines <= s.lines() {
			return nil // replaced already, or that release drained and rewound it
		}
	}
	_, err := a.refill(s, lines)
	return err
}

// refill replaces the current slab for a request of lines: activate the
// largest free slab that holds it, grow the table if none does, and seal
// the outgoing slab so its leases can drain it into the free pool. old
// is the slab the caller found exhausted (nil on first use); if another
// refill already replaced it the existing current slab is returned and
// nothing changes.
//
//ppc:coldpath -- runs at most once per slabful of payload traffic
func (a *shardArena) refill(old *arenaSlab, lines uint64) (*arenaSlab, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur := a.cur.Load(); cur != old {
		return cur, nil
	}
	var next *arenaSlab
	if tab := a.tab.Load(); tab != nil {
		for _, s := range *tab {
			if s.state.Load() == slabFree && s.lines() >= lines && (next == nil || s.lines() > next.lines()) {
				next = s
			}
		}
	}
	if next == nil {
		var err error
		if next, err = a.growLocked(lines); err != nil {
			return nil, err
		}
	}
	next.state.Store(slabActive)
	// Publish the replacement before sealing the old slab: an allocator
	// that backs out of the sealed slab must find the new one on retry.
	a.cur.Store(next)
	if old != nil {
		old.state.Store(slabSealed)
		if slabLeases(old.word.Load()) == 0 {
			tryRecycle(old)
		}
	}
	return next, nil
}

// growLocked appends a fresh slab to the table (copy-on-grow: the old
// snapshot stays valid for concurrent lookups): 2 MiB, or for the first,
// the request's power of two, 4 KiB at least. Caller holds mu.
//
//ppc:coldpath -- arena growth; steady-state traffic recycles instead
func (a *shardArena) growLocked(lines uint64) (*arenaSlab, error) {
	var cur []*arenaSlab
	if tab := a.tab.Load(); tab != nil {
		cur = *tab
	}
	if len(cur) >= arenaMaxSlabs {
		return nil, ErrArenaFull
	}
	size := arenaSlabBytes
	for len(cur) == 0 && size/2 >= max(arenaPageBytes, int(lines)<<lineShift) {
		size /= 2
	}
	s := &arenaSlab{buf: make([]byte, size), base: int64(len(cur)) << arenaSlabShift}
	next := make([]*arenaSlab, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	a.tab.Store(&next)
	a.grows.Add(1)
	return s, nil
}

// slabAt resolves a global arena offset to its slab (nil if the offset
// is outside the grown space — a corrupt or foreign descriptor).
//
//ppc:hotpath
func (a *shardArena) slabAt(byteOff int64) *arenaSlab {
	tab := a.tab.Load()
	if tab == nil {
		return nil
	}
	idx := byteOff >> arenaSlabShift
	if idx < 0 || idx >= int64(len(*tab)) {
		return nil
	}
	return (*tab)[idx]
}

// leased validates a descriptor, failing closed: it returns the slab ref
// was leased from and the segment's offset in it, or nil for the zero
// ref, an offset outside the grown space, a generation that no longer
// matches its slab (released and recycled, or scribbled into nonsense),
// or a segment running past the slab's real end.
//
//ppc:hotpath
func (a *shardArena) leased(ref PayloadRef) (*arenaSlab, int64) {
	off, n := ref.byteOff(), int64(ref.Len())
	if s := a.slabAt(off); s != nil && n != 0 && slabGen(s.word.Load()) == ref.gen() && off-s.base+n <= int64(len(s.buf)) {
		return s, off - s.base
	}
	return nil, 0
}

// view materializes a descriptor as a slice into the arena — the
// handler-side zero-copy read; a descriptor that fails validation yields
// nil rather than a window into another call's bytes. A segment still
// staged on the copy-offload lane waits here for the staging copy to
// land before the bytes are exposed.
//
//ppc:hotpath
func (a *shardArena) view(ref PayloadRef) []byte {
	s, lo := a.leased(ref)
	if s == nil {
		return nil
	}
	if ref.staged() && a.lane != nil {
		a.lane.waitStaged(ref, a)
	}
	hi := lo + int64(ref.Len())
	return s.buf[lo:hi:hi]
}

// release returns one lease. A descriptor that fails validation (a stale
// generation: the slab has drained since) is ignored.
//
//ppc:hotpath
func (a *shardArena) release(ref PayloadRef) {
	if s, _ := a.leased(ref); s != nil {
		a.releaseSlab(s)
	}
}

// addLease takes an extra lease on the slab backing ref — the copy-
// offload lane's second lease, valid only while the caller already
// holds one (an existing lease is what keeps the slab from recycling
// under this increment).
//
//ppc:coldpath -- offload staging setup, large transfers only
func (a *shardArena) addLease(ref PayloadRef) {
	if s := a.slabAt(ref.byteOff()); s != nil {
		s.word.Add(slabLeaseOne)
	}
}

// releaseSlab drops one lease with one CAS. The release that empties
// the active slab also rewinds it — cursor to zero, generation on by
// one — so closed-loop traffic, whose every call drains the slab, keeps
// leasing the lines it has just used instead of walking a slab's worth
// of cold ones. The release that empties a sealed slab recycles it. The
// CAS and the state load are two steps, and a releaser can lose its
// processor between them for longer than a slab lives: the zero it saw
// may belong to an earlier fill, the sealed state it then reads to a
// later one with leases out. tryRecycle therefore trusts neither.
//
//ppc:hotpath
func (a *shardArena) releaseSlab(s *arenaSlab) {
	for {
		w := s.word.Load()
		next := w - slabLeaseOne
		if slabLeases(w) == 1 && s.state.Load() == slabActive {
			next = slabRewound(w)
		}
		if s.word.CompareAndSwap(w, next) {
			if slabLeases(next) == 0 && s.state.Load() == slabSealed {
				tryRecycle(s)
			}
			return
		}
	}
}

// tryRecycle resets a drained, sealed slab for reuse. The state CAS
// elects one recycler (a racing releaser and refill both call this),
// and the winner rewinds the slab with a CAS on the packed word from a
// value whose lease count is zero: a lease taken at any point before
// the CAS makes it fail, so a slab cannot recycle under a live lease
// whatever stale evidence brought the caller here. A failed rewind puts
// the slab back to sealed untouched. The lease that defeated it may be
// the true last one, released while the state read recycling, so the
// count is read once more after the restore — the releaser decrements
// then loads the state, this stores the state then loads the count,
// and one of the two sees the other. The generation moves on before
// the slab is marked free. An allocator holding a stale cur can add to
// a free slab's word and back out: it leaves the cursor advanced, never
// the count, and the next fill starts short until it first drains.
//
//ppc:coldpath -- slab recycling, once per drained slabful
func tryRecycle(s *arenaSlab) {
	for {
		if !s.state.CompareAndSwap(slabSealed, slabRecycling) {
			return
		}
		if w := s.word.Load(); slabLeases(w) == 0 && s.word.CompareAndSwap(w, slabRewound(w)) {
			break
		}
		s.state.Store(slabSealed)
		if slabLeases(s.word.Load()) != 0 {
			return
		}
	}
	s.state.Store(slabFree)
}

// leasesActive sums outstanding leases across the arena's slabs
// (ShardStats.LeasesActive). Zero at quiescence; a persistent nonzero
// means a leaked lease — exactly what the chaos storm asserts against.
//
//ppc:coldpath -- diagnostics walk
func (a *shardArena) leasesActive() int64 {
	tab := a.tab.Load()
	if tab == nil {
		return 0
	}
	var n int64
	for _, s := range *tab {
		n += slabLeases(s.word.Load())
	}
	return n
}
