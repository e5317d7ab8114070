package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPayloadRefPacking pins the descriptor bit layout: gen, offset,
// and length round-trip through the packed word, offsets are carried
// in line units, and the staged bit is independent of all three.
func TestPayloadRefPacking(t *testing.T) {
	cases := []struct {
		gen uint32
		off int64
		n   int
	}{
		{0, 0, 1},
		{1, 64, 100},
		{65535, (int64(payloadOffMask)) << lineShift, MaxPayloadBytes},
		{7, 3 << arenaSlabShift, arenaLineBytes},
	}
	for _, c := range cases {
		r := packPayloadRef(c.gen, c.off, c.n)
		if r.gen() != c.gen || r.byteOff() != c.off || r.Len() != c.n {
			t.Fatalf("pack(%d,%d,%d) round-trips as (%d,%d,%d)",
				c.gen, c.off, c.n, r.gen(), r.byteOff(), r.Len())
		}
		if r.staged() {
			t.Fatalf("pack(%d,%d,%d) spuriously staged", c.gen, c.off, c.n)
		}
		s := r | PayloadRef(payloadStagedBit)
		if !s.staged() || s.gen() != c.gen || s.byteOff() != c.off || s.Len() != c.n {
			t.Fatalf("staged bit disturbs the packed fields: %#x", uint64(s))
		}
	}
}

// TestArenaAllocBounds pins the segment size validation: zero,
// negative, and over-slab requests fail with ErrPayloadTooLarge before
// the arena is touched.
func TestArenaAllocBounds(t *testing.T) {
	var a shardArena
	for _, n := range []int{0, -1, MaxPayloadBytes + 1} {
		if _, _, err := a.alloc(n); !errors.Is(err, ErrPayloadTooLarge) {
			t.Fatalf("alloc(%d) = %v, want ErrPayloadTooLarge", n, err)
		}
	}
	if a.tab.Load() != nil {
		t.Fatal("rejected allocs grew the arena")
	}
}

// TestArenaAllocAlignmentAndIsolation checks the line discipline: every
// segment starts 64-aligned in the slab's offset space and no two live
// segments overlap (distinct lines), so payload readers never
// false-share.
func TestArenaAllocAlignmentAndIsolation(t *testing.T) {
	var a shardArena
	type seg struct {
		lo, hi int64
	}
	var segs []seg
	for i, n := range []int{1, 63, 64, 65, 4096, 100} {
		ref, buf, err := a.alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != n {
			t.Fatalf("alloc %d returned %d bytes", n, len(buf))
		}
		off := ref.byteOff()
		if off%arenaLineBytes != 0 {
			t.Fatalf("segment %d at unaligned offset %d", i, off)
		}
		rounded := (int64(n) + arenaLineBytes - 1) &^ (arenaLineBytes - 1)
		for _, s := range segs {
			if off < s.hi && off+rounded > s.lo {
				t.Fatalf("segment [%d,%d) overlaps [%d,%d)", off, off+rounded, s.lo, s.hi)
			}
		}
		segs = append(segs, seg{off, off + rounded})
	}
	if got := a.leasesActive(); got != int64(len(segs)) {
		t.Fatalf("leasesActive = %d, want %d", got, len(segs))
	}
}

// TestArenaViewRoundTrip checks the fundamental zero-copy property: the
// view returned for a descriptor aliases the exact bytes alloc handed
// the producer — same backing memory, not a copy.
func TestArenaViewRoundTrip(t *testing.T) {
	var a shardArena
	ref, buf, err := a.alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = byte(i)
	}
	v := a.view(ref)
	if v == nil || &v[0] != &buf[0] || len(v) != len(buf) {
		t.Fatal("view does not alias the allocated segment")
	}
	buf[0] = 0xAB
	if v[0] != 0xAB {
		t.Fatal("view is a copy, not an alias")
	}
}

// TestArenaViewFailsClosed pins the validation: the zero ref, a
// generation-stale ref, and an out-of-space ref all yield nil — a bad
// descriptor can never become a window into another call's bytes.
func TestArenaViewFailsClosed(t *testing.T) {
	var a shardArena
	if a.view(0) != nil {
		t.Fatal("zero ref produced a view")
	}
	ref, _, err := a.alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// An offset beyond the grown space.
	far := packPayloadRef(0, int64(arenaSlabBytes)*4, 16)
	if a.view(far) != nil {
		t.Fatal("out-of-space ref produced a view")
	}
	// A wrong-generation ref into a live slab.
	stale := packPayloadRef(ref.gen()+1, ref.byteOff(), 16)
	if a.view(stale) != nil {
		t.Fatal("generation-stale ref produced a view")
	}
	a.release(ref)
}

// TestArenaFirstSlabSmall: a shard's first slab is the smallest power of
// two that holds its first request, and never less than a page: one
// 4 KiB slab — 64 lines — for a 4 KiB request and for a 64-byte one.
func TestArenaFirstSlabSmall(t *testing.T) {
	for _, n := range []int{4096, 64} {
		var a shardArena
		ref, _, err := a.alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.grows.Load(); got != 1 {
			t.Fatalf("alloc(%d): grows = %d, want 1", n, got)
		}
		if s := a.cur.Load(); s.lines() != 64 || len(s.buf) != arenaPageBytes {
			t.Fatalf("alloc(%d): first slab has %d lines (%d bytes), want 64 (4 KiB)", n, s.lines(), len(s.buf))
		}
		a.release(ref)
	}
}

// TestFirstPayloadBytes: a fresh System plus its first AllocPayload(4096),
// attached to a Call, leaves < 16 KiB live — a 4 KiB first slab, not a
// 64 KiB or 2 MiB one. Report-only under -race.
func TestFirstPayloadBytes(t *testing.T) {
	const n = 8
	systems := make([]*System, n)
	before := liveHeap()
	for i := range systems {
		// unaudited: the figure is the bare System's; the loop after the measurement closes and audits each one
		sys := NewSystemOptions(Options{Shards: 1})
		svc, err := sys.Bind(ServiceConfig{Name: "pay", Handler: func(ctx *Ctx, args *Args) {
			if len(ctx.Payload(0)) != 4096 {
				t.Error("the handler does not view the payload")
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		c := sys.NewClientWith(ClientOptions{})
		ref, buf, err := c.AllocPayload(4096)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 1
		var args Args
		args.AttachPayload(ref)
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	per := (float64(liveHeap()) - float64(before)) / n
	t.Logf("a System plus its first payload call: %.0f B live", per)
	if per >= 16<<10 {
		if raceEnabled {
			t.Logf("%.0f B under -race (report-only)", per)
		} else {
			t.Errorf("a System plus its first payload call leaves %.0f B live, want < %d", per, 16<<10)
		}
	}
	for _, sys := range systems {
		if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ArenaGrows != 1 {
			t.Errorf("LeasesActive %d, ArenaGrows %d; want 0 and 1", st.LeasesActive, st.ArenaGrows)
		}
		sys.Close()
		awaitAudit(t, sys)
	}
}

// TestArenaLargeFirstRequest: a first request of a whole window gets a
// 2 MiB slab in one grow, not a small slab and then a second grow.
func TestArenaLargeFirstRequest(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	c := sys.NewClientWith(ClientOptions{})
	ref, buf, err := c.AllocPayload(MaxPayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != MaxPayloadBytes {
		t.Fatalf("AllocPayload returned %d bytes", len(buf))
	}
	a := &sys.shards[0].arena
	if got := sys.Stats()[0].ArenaGrows; got != 1 {
		t.Fatalf("ArenaGrows = %d, want 1", got)
	}
	if s := a.cur.Load(); len(s.buf) != arenaSlabBytes {
		t.Fatalf("first slab is %d bytes, want %d", len(s.buf), arenaSlabBytes)
	}
	c.ReleasePayload(ref)
	if got := sys.Stats()[0].LeasesActive; got != 0 {
		t.Fatalf("LeasesActive = %d", got)
	}
}

// TestArenaRefillPrefersLargest: a refill activates the largest free slab
// that holds the request, so a small request leaves the 4 KiB first slab
// free; and a request above 4 KiB is never served from that slab — with
// it the only free one, or even the active one, the arena grows instead.
func TestArenaRefillPrefersLargest(t *testing.T) {
	var a shardArena
	const big = 8 << 10 // above the first slab's size
	// Slab 0 (4 KiB: a page holds the first request), then slabs 1 and 2
	// (2 MiB): each full-size request seals the slab before it.
	r0, _, _ := a.alloc(64)
	r1, _, _ := a.alloc(MaxPayloadBytes)
	r2, _, _ := a.alloc(MaxPayloadBytes)
	tab := *a.tab.Load()
	if len(tab) != 3 || len(tab[0].buf) != arenaPageBytes || len(tab[1].buf) != arenaSlabBytes || a.cur.Load() != tab[2] {
		t.Fatalf("setup: %d slabs, want 4 KiB then two of 2 MiB with the last active", len(tab))
	}
	a.release(r0)
	a.release(r1)
	if tab[0].state.Load() != slabFree || tab[1].state.Load() != slabFree {
		t.Fatal("setup: slabs 0 and 1 did not drain into the free pool")
	}
	if next, err := a.refill(tab[2], 4096>>lineShift); err != nil || next != tab[1] {
		t.Fatalf("a 4 KiB refill (err %v) did not activate the free 2 MiB slab 1", err)
	}
	// Fill slab 1 holding every lease: the refill that overflows it finds
	// only the small slab free, and grows.
	held := []PayloadRef{r2}
	for a.grows.Load() == 3 {
		ref, _, err := a.alloc(big)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ref)
	}
	if last := held[len(held)-1]; last.byteOff()>>arenaSlabShift != 3 || tab[0].state.Load() != slabFree {
		t.Fatalf("a %d-byte request landed in slab %d; want a fourth slab, the small one left free", big, last.byteOff()>>arenaSlabShift)
	}
	// Make the small slab the active one; a large request still moves on.
	if next, err := a.refill(a.cur.Load(), 1); err != nil || next != tab[0] {
		t.Fatal("a one-line refill with only the small slab free did not activate it")
	}
	ref, _, err := a.alloc(big)
	if err != nil {
		t.Fatal(err)
	}
	if ref.byteOff()>>arenaSlabShift != 4 || a.grows.Load() != 5 {
		t.Fatalf("a %d-byte request on the active small slab landed in slab %d after %d grows; want slab 4, 5 grows", big, ref.byteOff()>>arenaSlabShift, a.grows.Load())
	}
	for _, r := range append(held, ref) {
		a.release(r)
	}
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d after every release", got)
	}
}

// TestArenaViewFailsClosedPastSlabEnd: slab 0 owns the offset window of a
// 2 MiB slab but holds 4 KiB. A ref inside the window and past the
// buffer — at its end, at the window's last line, or starting inside and
// running past it — views nothing and releases nothing, without a panic.
func TestArenaViewFailsClosedPastSlabEnd(t *testing.T) {
	var a shardArena
	live, _, err := a.alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.cur.Load().buf); got != arenaPageBytes {
		t.Fatalf("setup: first slab is %d bytes, want %d", got, arenaPageBytes)
	}
	for _, ref := range []PayloadRef{
		packPayloadRef(live.gen(), arenaPageBytes, 64),
		packPayloadRef(live.gen(), arenaSlabBytes-arenaLineBytes, 64),
		packPayloadRef(live.gen(), arenaPageBytes-arenaLineBytes, 128),
	} {
		if a.view(ref) != nil {
			t.Fatalf("ref at %d+%d past the 4 KiB slab's end produced a view", ref.byteOff(), ref.Len())
		}
		a.release(ref)
		if got := a.leasesActive(); got != 1 {
			t.Fatalf("releasing ref at %d+%d moved the lease count to %d", ref.byteOff(), ref.Len(), got)
		}
	}
	if a.view(live) == nil {
		t.Fatal("the live ref no longer views")
	}
	a.release(live)
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d", got)
	}
}

// TestArenaRecycleInvalidatesRefs drives one slab to exhaustion and
// back: sealing and recycling bumps the generation, after which every
// descriptor minted under the old generation fails validation, and the
// recycled slab serves fresh allocations from a reset cursor. The first
// request is full-size, so slab 0 is a 2 MiB slab and the reuse leg's
// full-size refill can land back in it.
func TestArenaRecycleInvalidatesRefs(t *testing.T) {
	var a shardArena
	seg := MaxPayloadBytes
	first, _, err := a.alloc(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust slab 0 so refill seals it; hold only `first` so the seal
	// leaves it draining, then release to trigger the recycle.
	var refs []PayloadRef
	for {
		ref, _, err := a.alloc(seg)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		if ref.byteOff() >= arenaSlabBytes { // first segment of slab 1
			break
		}
	}
	for _, r := range refs[:len(refs)-1] {
		a.release(r)
	}
	if a.view(first) == nil {
		t.Fatal("live ref invalidated while its lease is held")
	}
	a.release(first) // last lease on sealed slab 0 → recycle
	if v := a.view(first); v != nil {
		t.Fatal("stale ref still views a recycled slab")
	}
	if got := a.grows.Load(); got != 2 {
		t.Fatalf("grows = %d, want 2", got)
	}
	// The free slab is reused, not regrown, and its cursor was reset.
	// Fill slab 1 holding every lease (a release that drained it would
	// rewind it in place) until the refill lands back in slab 0.
	held := []PayloadRef{refs[len(refs)-1]}
	for {
		ref, _, err := a.alloc(seg)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ref)
		if ref.byteOff() < arenaSlabBytes { // back in recycled slab 0
			if ref.gen() == first.gen() {
				t.Fatal("recycled slab did not bump its generation")
			}
			if ref.byteOff() != 0 {
				t.Fatalf("recycled slab's cursor was not reset: first segment at %d", ref.byteOff())
			}
			break
		}
	}
	for _, r := range held {
		a.release(r)
	}
	if got := a.grows.Load(); got != 2 {
		t.Fatalf("recycle grew the arena: grows = %d, want 2", got)
	}
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d after every release", got)
	}
}

// TestArenaRewindsWhenDrained pins the closed-loop property: the release
// that empties the active slab rewinds it, so a caller that leases,
// calls and settles in a loop is handed the same lines every time, the
// descriptor it just settled no longer validates, and releasing that
// descriptor a second time is ignored instead of driving the count
// negative.
func TestArenaRewindsWhenDrained(t *testing.T) {
	var a shardArena
	var last PayloadRef
	for i := 0; i < 1000; i++ {
		ref, buf, err := a.alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if ref.byteOff() != 0 {
			t.Fatalf("iteration %d: segment at offset %d, want the rewound slab's first line", i, ref.byteOff())
		}
		if ref == last {
			t.Fatalf("iteration %d: descriptor %#x minted twice", i, uint64(ref))
		}
		buf[0] = byte(i)
		if v := a.view(ref); len(v) != 4096 || v[0] != byte(i) {
			t.Fatalf("iteration %d: the live descriptor does not view its bytes", i)
		}
		if last != 0 && a.view(last) != nil {
			t.Fatalf("iteration %d: the previous call's descriptor still views the reused lines", i)
		}
		a.release(ref)
		a.release(ref) // double release of the last lease: generation mismatch, ignored
		if got := a.leasesActive(); got != 0 {
			t.Fatalf("iteration %d: leasesActive = %d", i, got)
		}
		last = ref
	}
	// With a second lease out the slab must not rewind under it.
	keep, kbuf, _ := a.alloc(64)
	kbuf[0] = 0x5A
	ref, _, _ := a.alloc(64)
	a.release(ref)
	if v := a.view(keep); v == nil || v[0] != 0x5A {
		t.Fatal("a release rewound the slab under a live lease")
	}
	if next, _, _ := a.alloc(64); next.byteOff() == keep.byteOff() {
		t.Fatal("a segment was handed out twice")
	} else {
		a.release(next)
	}
	a.release(keep)
	if got := a.grows.Load(); got != 1 {
		t.Fatalf("grows = %d, want 1", got)
	}
}

// TestArenaParkedLastReleaser replays, step by step, a releaser that
// loses its processor between releaseSlab's two steps for one whole
// slab cycle: its decrement took the count to zero while the slab was
// still filling; by the time it reads the state, the slab has been
// sealed, recycled, reactivated, leased from and sealed again. It used
// to win the sealed→recycling CAS and bump the generation under the
// outstanding lease — Ctx.Payload then returned nil for requests in
// flight and their leases were never returned (bench/README.md,
// Findings 2).
func TestArenaParkedLastReleaser(t *testing.T) {
	var a shardArena
	if _, _, err := a.alloc(64); err != nil {
		t.Fatal(err)
	}
	s := a.cur.Load()
	// Step one of releaseSlab — the CAS that takes the count to zero (and,
	// the slab being active, rewinds it); the releaser is parked before
	// step two, the state load.
	if w := s.word.Load(); slabLeases(w) != 1 || !s.word.CompareAndSwap(w, slabRewound(w)) {
		t.Fatal("setup: the parked releaser did not take the count to zero")
	}
	// One slab cycle: s is sealed and, being drained, recycled; the next
	// refill reactivates it; a request leases from it; it is sealed again
	// with that lease outstanding.
	if _, err := a.refill(s, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.refill(a.cur.Load(), 1); err != nil {
		t.Fatal(err)
	}
	if a.cur.Load() != s {
		t.Fatal("setup: the recycled slab was not reactivated")
	}
	live, buf, err := a.alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.refill(s, 1); err != nil {
		t.Fatal(err)
	}
	w := s.word.Load()
	if s.state.Load() != slabSealed || slabLeases(w) != 1 || slabGen(w) != 2 {
		t.Fatalf("setup: state %d, leases %d, gen %d; want sealed, 1, 2", s.state.Load(), slabLeases(w), slabGen(w))
	}
	// The parked releaser resumes at step two.
	if s.state.Load() == slabSealed {
		tryRecycle(s)
	}
	if s.word.Load() != w || s.state.Load() != slabSealed {
		t.Fatalf("a stale last-releaser recycled a slab with a lease out: state %d, word %#x, was %#x", s.state.Load(), s.word.Load(), w)
	}
	if v := a.view(live); v == nil || &v[0] != &buf[0] {
		t.Fatal("the outstanding lease no longer views its bytes")
	}
	// The true last releaser still recycles.
	a.release(live)
	if s.state.Load() != slabFree || s.word.Load() != slabRewound(w) || a.leasesActive() != 0 {
		t.Fatalf("after the true last release: state %d, word %#x; want free, %#x",
			s.state.Load(), s.word.Load(), slabRewound(w))
	}
}

// TestArenaStaleRecycleKeepsTrueLastReleaser races the stale recycler
// of the test above against the true last releaser. While the stale one
// holds the slab in recycling, the true one sees a state that is not
// sealed and walks away; the stale one must notice on its way out, or
// the slab stays sealed and drained forever and the arena grows instead
// of recycling.
func TestArenaStaleRecycleKeepsTrueLastReleaser(t *testing.T) {
	var a shardArena
	for i := 0; i < 2000; i++ {
		s := &arenaSlab{}
		s.state.Store(slabSealed)
		s.word.Store(slabLeaseOne | 64) // one lease out, cursor mid-slab
		done := make(chan struct{})
		go func() {
			tryRecycle(s)
			close(done)
		}()
		a.releaseSlab(s)
		<-done
		if s.state.Load() != slabFree || s.word.Load() != slabRewound(0) {
			t.Fatalf("iteration %d: state %d, word %#x; want free and rewound once (%#x)", i, s.state.Load(), s.word.Load(), slabRewound(0))
		}
	}
}

// TestArenaStaleReleaseIgnored pins double-release safety across a
// recycle: releasing a descriptor whose slab has already recycled is a
// no-op (generation mismatch), so it can never push leases negative
// and recycle a slab out from under a live lease.
func TestArenaStaleReleaseIgnored(t *testing.T) {
	var a shardArena
	ref, _, err := a.alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	s := a.cur.Load()
	a.release(ref)
	// Manually seal+recycle (refill would do this on exhaustion).
	s.state.Store(slabSealed)
	tryRecycle(s)
	if s.state.Load() != slabFree {
		t.Fatal("drained sealed slab did not recycle")
	}
	a.release(ref) // stale: gen mismatch
	if got := slabLeases(s.word.Load()); got != 0 {
		t.Fatalf("stale release moved the lease count: %d", got)
	}
}

// TestArenaGenWrap pins validation across the 16-bit generation wrap:
// the slab's generation field is exactly as wide as the one a PayloadRef
// carries, so after 2^16 drains it is back where it started, the wrap
// carries into nothing, and a fresh descriptor validates on both sides
// of it. The original bug, when the slab kept a wider counter than the
// ref: after a slab's 65536th recycle every FRESH descriptor failed
// validation and the payload path was permanently poisoned — first seen
// as empty handler views in the 1 MB benchmark.
func TestArenaGenWrap(t *testing.T) {
	var a shardArena
	for i := 0; i <= 1<<payloadGenBits; i++ {
		ref, buf, err := a.alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		if v := a.view(ref); len(v) != 64 || v[0] != byte(i) {
			t.Fatalf("drain %d: fresh descriptor (gen %d) fails validation", i, ref.gen())
		}
		a.release(ref)
		if i == 1<<payloadGenBits-1 {
			if w := a.cur.Load().word.Load(); w != 0 {
				t.Fatalf("after 2^16 drains the word is %#x, want 0: the generation wrap carried", w)
			}
		}
	}
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d", got)
	}
}

// TestArenaOvershootKeepsLeases: allocators racing on a full slab each
// overshoot its cursor once and back out. However many do, the cursor's
// excess stays inside its own field: the lease held throughout is still
// counted once, its view stays valid, and its generation is untouched.
func TestArenaOvershootKeepsLeases(t *testing.T) {
	needTwoPs(t)
	var a shardArena
	keep, buf, err := a.alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xC3
	s := a.cur.Load()
	// Fill the slab to its last line, then hold refill's mutex so that
	// every allocator overshoots and parks instead of moving on.
	s.word.Add(s.lines() - 1)
	a.mu.Lock()
	const racers = 256
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref, _, err := a.alloc(MaxPayloadBytes) // a whole slab's worth of overshoot each
			if err != nil {
				t.Error(err)
			}
			a.release(ref)
		}()
	}
	waitCond(t, 10*time.Second, "every racer to overshoot", func() bool {
		return s.word.Load()&slabCursorMask >= racers*arenaSlabBytes>>lineShift
	})
	w := s.word.Load()
	if slabLeases(w) != 1 || slabGen(w) != keep.gen() {
		t.Fatalf("overshoot by %d lines disturbed the word: leases %d, gen %d; want 1, %d",
			w&slabCursorMask, slabLeases(w), slabGen(w), keep.gen())
	}
	if v := a.view(keep); v == nil || v[0] != 0xC3 {
		t.Fatal("the held lease no longer views its bytes")
	}
	a.mu.Unlock()
	wg.Wait()
	a.release(keep)
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d after every release", got)
	}
}

// TestArenaConcurrentAllocRelease hammers the lease protocol from many
// goroutines with segment sizes that force continual seal/recycle
// traffic, then asserts full convergence: no leaked lease, no negative
// count, and every view observed its own bytes.
func TestArenaConcurrentAllocRelease(t *testing.T) {
	var a shardArena
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			want := make([]byte, 8192)
			for i := range want {
				want[i] = id
			}
			for i := 0; i < iters; i++ {
				ref, buf, err := a.alloc(len(want))
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				copy(buf, want)
				v := a.view(ref)
				if v == nil || !bytes.Equal(v, want) {
					t.Error("view lost or corrupted its bytes")
					a.release(ref)
					return
				}
				a.release(ref)
			}
		}(byte(g))
	}
	wg.Wait()
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leaked leases after convergence: %d", got)
	}
}

// TestArenaGrowthStorm drives the growth rule from four goroutines sharing
// one arena. Each draws request sizes from 4 KiB to 1 MiB, holds up to
// three leases across the refills the others cause, stamps each lease at
// both ends, checks the stamps through view before releasing it, and keeps
// every ref it released. At the end no lease is out, every slab after the
// first is 2 MiB, growth stayed within what the held leases can pin, and
// every saved ref views nil and releases nothing.
func TestArenaGrowthStorm(t *testing.T) {
	var a shardArena
	const goroutines, iters, hold = 4, 400, 3
	saved := make([][]PayloadRef, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			type lease struct {
				ref   PayloadRef
				stamp uint64
			}
			var held []lease
			drop := func() {
				l := held[0]
				held = held[1:]
				v := a.view(l.ref)
				if v == nil || binary.LittleEndian.Uint64(v) != l.stamp || binary.LittleEndian.Uint64(v[len(v)-8:]) != l.stamp {
					t.Errorf("goroutine %d: a held lease lost its stamp", g)
				}
				a.release(l.ref)
				saved[g] = append(saved[g], l.ref)
			}
			for i := 0; i < iters; i++ {
				n := 4 << 10 << rng.Intn(9) // 4 KiB .. 1 MiB
				n = min(n+rng.Intn(n), 1<<20)
				ref, buf, err := a.alloc(n)
				if err != nil {
					t.Errorf("alloc(%d): %v", n, err)
					return
				}
				stamp := uint64(g)<<32 | uint64(i)
				binary.LittleEndian.PutUint64(buf, stamp)
				binary.LittleEndian.PutUint64(buf[len(buf)-8:], stamp)
				held = append(held, lease{ref, stamp})
				if len(held) > rng.Intn(hold+1) {
					drop()
				}
			}
			for len(held) > 0 {
				drop()
			}
		}(g)
	}
	wg.Wait()
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("leasesActive = %d after every release", got)
	}
	tab := *a.tab.Load()
	for i, s := range tab[1:] {
		if len(s.buf) != arenaSlabBytes {
			t.Errorf("slab %d is %d bytes; every slab after the first is 2 MiB", i+1, len(s.buf))
		}
	}
	// A 2 MiB slab stays out of the free pool only while a lease pins it:
	// each goroutine holds at most hold+1 at once, and one more in a
	// stale-cur back-out. The limit doubles that, plus the first slab.
	t.Logf("%d grows, first slab %d bytes", a.grows.Load(), len(tab[0].buf))
	if got, limit := a.grows.Load(), int64(1+2*goroutines*(hold+2)); got != int64(len(tab)) || got > limit {
		t.Errorf("ArenaGrows = %d for %d slabs, want them equal and at most %d", got, len(tab), limit)
	}
	for _, refs := range saved {
		for _, ref := range refs {
			if a.view(ref) != nil {
				t.Fatalf("a released ref into slab %d still views", ref.byteOff()>>arenaSlabShift)
			}
			a.release(ref)
		}
	}
	if got := a.leasesActive(); got != 0 {
		t.Fatalf("releasing released refs moved leasesActive to %d", got)
	}
}

// TestClientPayloadAPI exercises the public surface end to end on one
// shard: AllocPayload → AttachPayload → Call → handler views the bytes
// in place → settle releases the lease.
func TestClientPayloadAPI(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	got := make([]byte, 0, 256)
	svc, err := sys.Bind(ServiceConfig{Name: "pay", Handler: func(ctx *Ctx, args *Args) {
		if n := ctx.NumPayloads(); n != 2 {
			t.Errorf("NumPayloads = %d, want 2", n)
		}
		got = append(got[:0], ctx.Payload(0)...)
		got = append(got, ctx.Payload(1)...)
		if ctx.Payload(2) != nil || ctx.Payload(-1) != nil {
			t.Error("out-of-range payload index produced a view")
		}
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()

	var args Args
	args.SetOp(1, 0)
	r1, b1, err := c.AllocPayload(5)
	if err != nil {
		t.Fatal(err)
	}
	copy(b1, "hello")
	args.AttachPayload(r1)
	if err := c.AttachBytes(&args, []byte(" world")); err != nil {
		t.Fatal(err)
	}
	if args.NumPayloads() != 2 || args.PayloadRefAt(0) != r1 {
		t.Fatalf("attach bookkeeping wrong: n=%d", args.NumPayloads())
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("handler saw %q", got)
	}
	if args.NumPayloads() != 0 {
		t.Fatal("settle left the caller's descriptor count set")
	}
	if st := sys.Stats()[0]; st.LeasesActive != 0 {
		t.Fatalf("LeasesActive = %d after settle, want 0", st.LeasesActive)
	}
}

// TestPayloadErrorPathsRelease pins the lease-settlement contract on
// failing calls: a call that never reaches its handler (bad entry
// point, killed service, dead-on-arrival context) still consumes the
// attached leases.
func TestPayloadErrorPathsRelease(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()

	attach := func() *Args {
		var args Args
		if err := c.AttachBytes(&args, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		return &args
	}
	if err := c.Call(9999, attach()); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("bad EP: %v", err)
	}
	if err := c.AsyncCall(9999, attach()); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("async bad EP: %v", err)
	}
	if _, err := c.async(9999, []Args{*attach(), *attach()}, nil, 0); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("batch bad EP: %v", err)
	}
	ep := svc.EP()
	if err := sys.Kill(ep, false); err != nil {
		t.Fatal(err)
	}
	// A drained kill retracts the entry point, so the call fails either
	// as killed (mid-drain) or as a bad entry point (after retraction);
	// both are pre-dispatch error settles.
	if err := c.Call(ep, attach()); !errors.Is(err, ErrKilled) && !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("killed: %v", err)
	}
	if st := sys.Stats()[0]; st.LeasesActive != 0 {
		t.Fatalf("error paths leaked %d leases", st.LeasesActive)
	}
}

// TestPayloadAsyncAndBatchRelease runs payloads through the ring and
// the batch path and asserts every lease settles — including requests
// whose args block is reused by the caller immediately after submit
// (the ring's slot copy owns the descriptors from acceptance).
func TestPayloadAsyncAndBatchRelease(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	var mu sync.Mutex
	total := 0
	svc, err := sys.Bind(ServiceConfig{Name: "apay", Handler: func(ctx *Ctx, args *Args) {
		mu.Lock()
		total += len(ctx.Payload(0))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	done := make(chan struct{}, 64)

	var args Args
	const rounds = 32
	for i := 0; i < rounds; i++ {
		if err := c.AttachBytes(&args, []byte("async-payload")); err != nil {
			t.Fatal(err)
		}
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
			t.Fatal(err)
		}
		if args.NumPayloads() != 0 {
			t.Fatal("accepted submit left the caller's descriptor count set")
		}
	}
	for i := 0; i < rounds; i++ {
		<-done
	}

	b := c.NewBatch(svc.EP(), 8)
	b.SetNotify(done)
	for i := 0; i < 8; i++ {
		if err := c.AttachBytes(&args, []byte("batch-payload")); err != nil {
			t.Fatal(err)
		}
		b.Add(&args)
		if args.NumPayloads() != 0 {
			t.Fatal("Add left the caller's descriptor count set")
		}
	}
	if n, err := b.Flush(); err != nil || n != 8 {
		t.Fatalf("Flush = (%d, %v)", n, err)
	}
	for i := 0; i < 8; i++ {
		<-done
	}

	mu.Lock()
	want := rounds*len("async-payload") + 8*len("batch-payload")
	if total != want {
		t.Fatalf("handlers saw %d payload bytes, want %d", total, want)
	}
	mu.Unlock()
	if st := sys.Stats()[0]; st.LeasesActive != 0 {
		t.Fatalf("async/batch paths leaked %d leases", st.LeasesActive)
	}
}

// TestPayloadOffload stages a large AttachBytes through the offload
// lane and checks the rendezvous: the handler's view waits for the
// staged copy and sees the full bytes, the lane's byte counter moves,
// and both leases (call + copy job) settle.
func TestPayloadOffload(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1, OffloadThreshold: 1024})
	data := make([]byte, 128<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var ok bool
	var mu sync.Mutex
	svc, err := sys.Bind(ServiceConfig{Name: "off", Handler: func(ctx *Ctx, args *Args) {
		v := ctx.Payload(0)
		mu.Lock()
		ok = bytes.Equal(v, data)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()

	var args Args
	if err := c.AttachBytes(&args, data); err != nil {
		t.Fatal(err)
	}
	if !args.PayloadRefAt(0).staged() {
		t.Skip("offload lane fell back inline (saturated); nothing to rendezvous")
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !ok {
		t.Fatal("handler view diverged from the staged bytes")
	}
	st := sys.Stats()[0]
	if st.OffloadedBytes == 0 {
		t.Fatal("offload lane copied nothing")
	}
	// The copier drops the job's lease as its last step, after the ref
	// clear that let the handler's view (and so the call) proceed: when
	// the offload worker made the copy, the call can return first. The
	// running offload lane settles the leases and the queue, not Close.
	awaitAudit(t, sys)
}

// TestPayloadOffloadStageRacesClose: a stage that races System.Close is
// landed exactly once — by close's drain, which sees a job staged before
// the closed store, or by the stager itself, which sees the store — and
// both of its leases settle, with a handler that never views the payload
// (so no view steals the job) and whether or not a worker ever ran.
func TestPayloadOffloadStageRacesClose(t *testing.T) {
	data := make([]byte, 64<<10)
	for iter := 0; iter < 200; iter++ {
		sys := newSystem(t, Options{Shards: 1})
		svc, err := sys.Bind(ServiceConfig{Name: "blind", Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			t.Fatal(err)
		}
		c := sys.NewClientWith(ClientOptions{})
		staged := make(chan bool, 1)
		go func() {
			for i := 0; i < iter%8; i++ {
				runtime.Gosched()
			}
			var args Args
			if err := c.AttachBytes(&args, data); err != nil {
				t.Errorf("AttachBytes: %v", err)
			}
			staged <- args.PayloadRefAt(0).staged()
			if err := c.Call(svc.EP(), &args); err != nil { // synchronous calls survive Close
				t.Errorf("Call: %v", err)
			}
		}()
		sys.Close()
		want := int64(0)
		if <-staged {
			want = int64(len(data))
		}
		waitCond(t, 5*time.Second, "the staged copy to land and both leases to settle", func() bool {
			st := sys.Stats()[0]
			return st.OffloadedBytes == want && st.LeasesActive == 0 && st.OffloadQueueDepth == 0
		})
		c.Release()
		if st := sys.Stats()[0]; st.OffloadedBytes != want || st.LeasesActive != 0 {
			t.Fatalf("iter %d: OffloadedBytes = %d, want %d (landed exactly once); LeasesActive = %d", iter, st.OffloadedBytes, want, st.LeasesActive)
		}
	}
}

// TestPayloadOffloadDisabled pins the negative-threshold knob: the lane
// never stages, every AttachBytes copies inline, and correctness is
// unchanged.
func TestPayloadOffloadDisabled(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1, OffloadThreshold: -1})
	data := make([]byte, 256<<10)
	var n int
	var mu sync.Mutex
	svc, err := sys.Bind(ServiceConfig{Name: "inline", Handler: func(ctx *Ctx, args *Args) {
		mu.Lock()
		n = len(ctx.Payload(0))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	if err := c.AttachBytes(&args, data); err != nil {
		t.Fatal(err)
	}
	if args.PayloadRefAt(0).staged() {
		t.Fatal("disabled lane still staged a copy")
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != len(data) {
		t.Fatalf("handler saw %d bytes, want %d", n, len(data))
	}
	if st := sys.Stats()[0]; st.OffloadedBytes != 0 {
		t.Fatal("disabled lane reported offloaded bytes")
	}
}

// TestPayloadDeadlineOrphanLease pins the lease-outlives-quarantine
// invariant: a CallDeadline whose handler sleeps past the deadline
// orphans the call, and the payload view stays valid for the orphaned
// handler until it returns — the lease settles with the executor, not
// the caller.
func TestPayloadDeadlineOrphanLease(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	block := make(chan struct{})
	checked := make(chan bool, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "orphan", Handler: func(ctx *Ctx, args *Args) {
		<-block // outlive the caller's deadline
		v := ctx.Payload(0)
		checked <- v != nil && string(v) == "survives"
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	if err := c.AttachBytes(&args, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	err = c.CallDeadline(svc.EP(), &args, 500*time.Microsecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("CallDeadline = %v, want ErrDeadline", err)
	}
	// Caller is gone; the handler still holds the view through the
	// quarantined descriptor.
	if st := sys.Stats()[0]; st.LeasesActive == 0 {
		t.Fatal("lease released before the orphaned handler returned")
	}
	close(block)
	if !<-checked {
		t.Fatal("orphaned handler's payload view was invalidated")
	}
	// The orphan's return settles the lease, on the open System.
	awaitAudit(t, sys)
}
