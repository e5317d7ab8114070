package rt

import (
	"testing"
	"unsafe"
)

// These tests pin the cache-line layout facts that the //ppc:padded /
// //ppc:hotline annotations assert and ppclint's layout analyzer
// verifies from go/types offsets. They repeat the check with the
// compiler's own unsafe.Offsetof/Sizeof so that a field insertion that
// silently re-shapes a hot struct fails plain `go test`, even in an
// environment that never runs the lint.
//
// If one of these fails after an intentional layout change, fix the
// struct's padding so the isolation invariant holds again (and run
// `go run ./tools/ppclint ./rt/...` — it diagnoses which line is
// shared); do not just update the numbers here.

const lineBytes = 64

// TestRingLayout pins the async ring: each cursor owns its own cache
// line and the struct tiles whole lines so embedding it 64-aligned
// (laneRing.ring) preserves the isolation.
func TestRingLayout(t *testing.T) {
	var r asyncRing
	if s := unsafe.Sizeof(r); s%lineBytes != 0 {
		t.Errorf("asyncRing size %d is not a multiple of %d", s, lineBytes)
	}
	enq, deq := unsafe.Offsetof(r.enq), unsafe.Offsetof(r.deq)
	if enq%lineBytes != 0 {
		t.Errorf("enq at offset %d is not line-aligned", enq)
	}
	if deq%lineBytes != 0 {
		t.Errorf("deq at offset %d is not line-aligned", deq)
	}
	if enq/lineBytes == deq/lineBytes {
		t.Errorf("enq (offset %d) and deq (offset %d) share a cache line", enq, deq)
	}

	// The slot's publish word leads the slot: the producer's seq store
	// and the consumer's seq load hit the same line as the request they
	// order, which is the point — one line per handoff.
	var sl ringSlot
	if off := unsafe.Offsetof(sl.seq); off != 0 {
		t.Errorf("ringSlot.seq at offset %d, want 0", off)
	}
	if unsafe.Offsetof(sl.req) <= unsafe.Offsetof(sl.seq) {
		t.Error("ringSlot.req does not follow seq")
	}
}

// TestCountersLayout pins the shardCounters striping: the embedded
// call stripe, the async submission side, health evidence, and gate
// state each own a line, and the struct tiles 64 bytes because
// Service.perShard is a []shardCounters.
//
// The completion offset is the regression this file exists for: before
// the layout analyzer, `completed` sat at offset 56 — on the line every
// admitting caller writes — so each async completion invalidated the
// submitters' counter line. Today the async submitter writes asyncAdm
// and the worker writes stripe.completed; they must not meet.
func TestCountersLayout(t *testing.T) {
	var c shardCounters
	if s := unsafe.Sizeof(c); s%lineBytes != 0 {
		t.Errorf("shardCounters size %d is not a multiple of %d", s, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	if off := unsafe.Offsetof(c.stripe); off != 0 {
		t.Errorf("stripe at offset %d, want 0 (an embedded callStripe must start a line)", off)
	}
	stripe := lineOf(unsafe.Offsetof(c.stripe))
	submit := lineOf(unsafe.Offsetof(c.asyncAdm))
	if submit == stripe {
		t.Errorf("asyncAdm (offset %d) shares the call stripe's line: async submitters and workers false-share", unsafe.Offsetof(c.asyncAdm))
	}
	if lineOf(unsafe.Offsetof(c.inited)) != submit {
		t.Errorf("inited (offset %d) left the submission line", unsafe.Offsetof(c.inited))
	}
	evidence := lineOf(unsafe.Offsetof(c.consecFaults))
	gate := lineOf(unsafe.Offsetof(c.healthState))
	if evidence == stripe || evidence == submit {
		t.Errorf("consecFaults (offset %d) shares a line with another stripe", unsafe.Offsetof(c.consecFaults))
	}
	if lineOf(unsafe.Offsetof(c.consecTimeouts)) != evidence {
		t.Error("consecTimeouts left the evidence line")
	}
	if gate == evidence || gate == stripe || gate == submit {
		t.Errorf("healthState (offset %d) shares a line with another stripe", unsafe.Offsetof(c.healthState))
	}
	for name, off := range map[string]uintptr{
		"reopenAt":       unsafe.Offsetof(c.reopenAt),
		"healthTrips":    unsafe.Offsetof(c.healthTrips),
		"healthRecovers": unsafe.Offsetof(c.healthRecovers),
		"shedCalls":      unsafe.Offsetof(c.shedCalls),
	} {
		if lineOf(off) != gate {
			t.Errorf("%s (offset %d) left the gate line", name, off)
		}
	}
}

// TestCallStripeLayout pins the call stripe: exactly one line, every
// counter on it, and — because descriptor-owned stripes are allocated
// one by one (Service.newStripe) — every allocation line-aligned, so no
// two callers' stripes ever share a line. 64 bytes, not 128: see the
// callStripe comment and BenchmarkStripeNeighbours below.
func TestCallStripeLayout(t *testing.T) {
	var st callStripe
	if s := unsafe.Sizeof(st); s != lineBytes {
		t.Errorf("callStripe size %d, want exactly one line", s)
	}
	// The two words a warm call writes lead the line; the cold counters
	// Service.Calls and the in-flight sum subtract follow them.
	for i, f := range []struct {
		name string
		off  uintptr
	}{
		{"admitted", unsafe.Offsetof(st.admitted)},
		{"completed", unsafe.Offsetof(st.completed)},
		{"asyncDone", unsafe.Offsetof(st.asyncDone)},
		{"unreturned", unsafe.Offsetof(st.unreturned)},
		{"authFail", unsafe.Offsetof(st.authFail)},
		{"backouts", unsafe.Offsetof(st.backouts)},
	} {
		if f.off != uintptr(i)*8 {
			t.Errorf("%s at offset %d, want %d", f.name, f.off, i*8)
		}
	}
	svc := &Service{}
	for i := 0; i < 300; i++ { // more than one span's worth of the 64-byte class
		p := uintptr(unsafe.Pointer(svc.newStripe()))
		if p%lineBytes != 0 {
			t.Fatalf("stripe %d allocated at %#x, not line-aligned: it shares lines with its heap neighbours", i, p)
		}
	}
	if len(svc.stripes) != 300 {
		t.Errorf("%d stripes linked, want 300", len(svc.stripes))
	}
}

// TestClientRecLayout pins the ownership record: what every call reads
// (the life state) on the first line, the cold slots on the second,
// and the first lease block — one line exactly, seven slots and the
// link, the shape every appended block has — on the third, so that a
// payload call's slot store and claim CAS dirty one line and it is not
// the one the next call's life check reads. Records are allocated one by
// one; the size keeps each of them line-aligned.
func TestClientRecLayout(t *testing.T) {
	var rec clientRec
	if sz := unsafe.Sizeof(rec); sz != 3*lineBytes {
		t.Errorf("clientRec size %d, want three lines", sz)
	}
	if sz := unsafe.Sizeof(rec.leases); sz != lineBytes {
		t.Errorf("leaseBlock size %d, want exactly one line", sz)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	for name, off := range map[string]uintptr{
		"epochs": unsafe.Offsetof(rec.epochs),
		"reg":    unsafe.Offsetof(rec.reg),
		"state":  unsafe.Offsetof(rec.state),
		"beat":   unsafe.Offsetof(rec.beat),
	} {
		if lineOf(off) != 0 {
			t.Errorf("%s (offset %d) left the record's first line", name, off)
		}
	}
	for name, off := range map[string]uintptr{
		"cd":    unsafe.Offsetof(rec.cd),
		"probe": unsafe.Offsetof(rec.probe),
	} {
		if lineOf(off) != 1 {
			t.Errorf("%s (offset %d) left the record's second line", name, off)
		}
	}
	if off := unsafe.Offsetof(rec.leases); off != 2*lineBytes {
		t.Errorf("leases at offset %d, want %d", off, 2*lineBytes)
	}
	sys := NewSystemShards(1)
	defer sys.Close()
	for i := 0; i < 100; i++ {
		c := sys.NewClientOnShard(0)
		if p := uintptr(unsafe.Pointer(c.rec)); p%lineBytes != 0 {
			t.Fatalf("record %d allocated at %#x, not line-aligned", i, p)
		}
		if p := uintptr(unsafe.Pointer(c.rec.leases.spill(1))); p%lineBytes != 0 {
			t.Fatalf("appended lease block %d allocated at %#x, not line-aligned", i, p)
		}
	}
}

// TestClientSizeClass pins a decided rule (ROADMAP, EXPERIMENTS.md E24):
// Client stays out of callStripe's allocator size class. Folding two of
// its fields once moved it into the 64-byte class, beside the stripes
// every warm call writes, and sync_held lost ~1 ns in 28 of 34 pairs.
func TestClientSizeClass(t *testing.T) {
	class := func(sz uintptr) uintptr { return (sz + 15) / 16 } // the allocator's small classes step by 16 up to 128 bytes
	if c, st := unsafe.Sizeof(Client{}), unsafe.Sizeof(callStripe{}); class(c) == class(st) || c <= st {
		t.Errorf("Client (%d bytes) is in callStripe's (%d bytes) allocator size class again", c, st)
	}
}

// TestCallDescLayout pins the call descriptor. Its owner rewrites the
// context and the scratch header on every call, so the descriptor tiles
// whole lines and every allocation is line-aligned (no other heap
// object shares a written line); the per-call fields fill the first two
// lines and the pool link and stripe list sit on the third. Its size class
// must differ from Service's: while the two were packed back to back, a
// held descriptor could sit beside the Service every caller reads.
func TestCallDescLayout(t *testing.T) {
	var cd callDesc
	sz := unsafe.Sizeof(cd)
	if sz != 3*lineBytes {
		t.Errorf("callDesc size %d, want three lines", sz)
	}
	if svc := unsafe.Sizeof(Service{}); (svc+15)/16 == (sz+15)/16 {
		t.Errorf("callDesc (%d bytes) and Service (%d bytes) are in one allocator size class again", sz, svc)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	if off := unsafe.Offsetof(cd.ctx); off != 0 {
		t.Errorf("ctx at offset %d, want 0", off)
	}
	if s := unsafe.Sizeof(cd.ctx); s > lineBytes {
		t.Errorf("Ctx grew to %d bytes: it no longer fits the descriptor's first line", s)
	}
	for name, off := range map[string]uintptr{
		"scratch":   unsafe.Offsetof(cd.scratch),
		"stripeSvc": unsafe.Offsetof(cd.stripeSvc),
		"stripe":    unsafe.Offsetof(cd.stripe),
	} {
		if lineOf(off) != 1 {
			t.Errorf("%s (offset %d) left the descriptor's second line", name, off)
		}
	}
	for name, off := range map[string]uintptr{
		"next":    unsafe.Offsetof(cd.next),
		"shard":   unsafe.Offsetof(cd.shard),
		"stripes": unsafe.Offsetof(cd.stripes),
	} {
		if lineOf(off) < 2 {
			t.Errorf("%s (offset %d) shares a line with the per-call fields", name, off)
		}
	}
	var sh shard
	sh.init(0)
	for i := 0; i < 100; i++ {
		cd := sh.newCD(0)
		sh.pushCD(cd) // onto the heap: an unescaped descriptor would live on this stack
		if p := uintptr(unsafe.Pointer(cd)); p%lineBytes != 0 {
			t.Fatalf("descriptor %d allocated at %#x, not line-aligned", i, p)
		}
	}
}

// BenchmarkStripeNeighbours is the measurement behind "64 bytes, not
// 128": two writers, three counter RMWs each per iteration, on one
// stripe, on the two lines of one 128-byte sector, and on lines in
// different sectors. If the adjacent-line prefetcher made sector
// neighbours interfere, sector would sit between shared and apart; on
// the defining host it equals apart. Run with -cpu 2 or more.
func BenchmarkStripeNeighbours(b *testing.B) {
	raw := make([]byte, 10*lineBytes)
	off := -uintptr(unsafe.Pointer(&raw[0])) & 127 // to the first 128-byte sector boundary
	at := func(line uintptr) *callStripe {
		return (*callStripe)(unsafe.Pointer(&raw[off+line*lineBytes]))
	}
	for _, c := range []struct {
		name string
		a, b uintptr
	}{{"shared", 0, 0}, {"sector", 0, 1}, {"apart", 0, 4}} {
		b.Run(c.name, func(b *testing.B) {
			done := make(chan struct{})
			for _, st := range []*callStripe{at(c.a), at(c.b)} {
				go func(st *callStripe) {
					for i := 0; i < b.N; i++ {
						st.admitted.Add(1)
						st.unreturned.Add(1)
						st.completed.Add(1)
					}
					done <- struct{}{}
				}(st)
			}
			<-done
			<-done
		})
	}
}

// TestCoarseClockLayout pins the shard clock's line: every deadline arm
// and every queued-deadline check loads it, every tick stores it.
func TestCoarseClockLayout(t *testing.T) {
	var cl coarseClock
	if s := unsafe.Sizeof(cl); s != lineBytes {
		t.Errorf("coarseClock size %d, want exactly one line", s)
	}
	if off := unsafe.Offsetof(cl.ns); off != 0 {
		t.Errorf("coarseClock.ns at offset %d, want 0", off)
	}
}

// TestBeatLayout pins the heartbeat tiling: shard.beats is a
// []workerBeat, so each beat must occupy exactly one line or
// neighbouring workers false-share their heartbeat stores.
func TestBeatLayout(t *testing.T) {
	var b workerBeat
	if s := unsafe.Sizeof(b); s != lineBytes {
		t.Errorf("workerBeat size %d, want exactly one line", s)
	}
}

// TestShardLayout pins the shard's hot-field isolation: the two pool heads
// (descriptors, deadline executors) and the wake pair each own a line —
// a submission writes no word of the shard's, so there is no fourth; the
// embedded padded structs (clock, arena) start line-aligned so their
// internal isolation is not sheared; and the whole shard tiles 64 bytes
// because System.shards is a []shard. The rings live outside the struct,
// in the lane array (TestLaneLayout).
func TestShardLayout(t *testing.T) {
	var s shard
	if sz := unsafe.Sizeof(s); sz%lineBytes != 0 {
		t.Errorf("shard size %d is not a multiple of %d", sz, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	free := unsafe.Offsetof(s.free)
	if free%lineBytes != 0 {
		t.Errorf("free at offset %d is not line-aligned", free)
	}
	if lineOf(unsafe.Offsetof(s.tab)) == lineOf(free) {
		t.Error("free shares its line with the service-table header again")
	}
	dlIdle := unsafe.Offsetof(s.dlIdle)
	if dlIdle%lineBytes != 0 || lineOf(dlIdle) == lineOf(free) {
		t.Errorf("dlIdle at offset %d: the executor pool's head must own a line, and not the descriptor pool's", dlIdle)
	}
	if off := unsafe.Offsetof(s.clock); off%lineBytes != 0 {
		t.Errorf("clock at offset %d shears its internal padding", off)
	}
	wake := lineOf(unsafe.Offsetof(s.doorbell))
	if lineOf(unsafe.Offsetof(s.parked)) != wake {
		t.Error("doorbell and parked no longer share the wake line")
	}
	for name, off := range map[string]uintptr{
		"free":   free,
		"dlIdle": dlIdle,
		"stop":   unsafe.Offsetof(s.stop),
		"clock":  unsafe.Offsetof(s.clock),
	} {
		if lineOf(off) == wake {
			t.Errorf("%s (offset %d) shares the wake line", name, off)
		}
	}
	if off := unsafe.Offsetof(s.clock); lineOf(off) != wake+1 {
		t.Errorf("clock at offset %d: the wake pair is the last hot line before it (a submission writes none)", off)
	}
	if off := unsafe.Offsetof(s.arena); off%lineBytes != 0 {
		t.Errorf("arena at offset %d shears its internal cur-line isolation", off)
	}
	if span := unsafe.Offsetof(s.arena) - unsafe.Offsetof(s.lanes); span != 2*lineBytes {
		t.Errorf("the lane/tenant block spans %d bytes, want two whole lines", span)
	}
}

// TestLaneLayout pins the lane tiling: shard.lanes is a []laneRing, so
// each lane must tile whole lines (or neighbouring lanes shear the
// embedded rings' cursor isolation), the embedded ring must start the
// struct so its internal padding survives the array stride, and the
// shed counter — written by overloading submitters — must not share a
// line with the next lane's ring header.
func TestLaneLayout(t *testing.T) {
	var lr laneRing
	if sz := unsafe.Sizeof(lr); sz%lineBytes != 0 {
		t.Errorf("laneRing size %d is not a multiple of %d", sz, lineBytes)
	}
	if off := unsafe.Offsetof(lr.ring); off != 0 {
		t.Errorf("laneRing.ring at offset %d, want 0 (array stride must preserve ring alignment)", off)
	}
	shed := unsafe.Offsetof(lr.shed)
	if shed%lineBytes != 0 {
		t.Errorf("shed at offset %d is not line-aligned", shed)
	}
	if shed/lineBytes == unsafe.Offsetof(lr.ring)/lineBytes {
		t.Error("shed shares the ring header's line")
	}
}

// TestTenantBucketLayout pins the token bucket's striping: the token
// word (every admitted call's fetch-add) and the refill cursor (the
// watchdog tick's CAS) each own a line, the immutable rate config sits
// on neither, and the struct tiles whole lines so an embedding change
// cannot silently shear the token line.
func TestTenantBucketLayout(t *testing.T) {
	var b tenantBucket
	if sz := unsafe.Sizeof(b); sz%lineBytes != 0 {
		t.Errorf("tenantBucket size %d is not a multiple of %d", sz, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	tokens := unsafe.Offsetof(b.tokens)
	refill := unsafe.Offsetof(b.lastRefill)
	if tokens%lineBytes != 0 {
		t.Errorf("tokens at offset %d is not line-aligned", tokens)
	}
	if refill%lineBytes != 0 {
		t.Errorf("lastRefill at offset %d is not line-aligned", refill)
	}
	if lineOf(tokens) == lineOf(refill) {
		t.Error("tokens and lastRefill share a line: admitters and the refiller false-share")
	}
	for name, off := range map[string]uintptr{
		"interval": unsafe.Offsetof(b.interval),
		"burst":    unsafe.Offsetof(b.burst),
	} {
		if lineOf(off) == lineOf(tokens) || lineOf(off) == lineOf(refill) {
			t.Errorf("%s (offset %d) shares a line with a hot word", name, off)
		}
	}
}

// TestArenaLayout pins the payload arena's striping. A slab's packed
// lease word (written by the shard-bound allocator on every lease and
// by whatever goroutine settles each call — async workers, deadline
// executors, the offload worker) owns a line, with the read-mostly
// metadata off it; the whole slab tiles 64 bytes. The arena header's cur
// pointer — the one word the warm alloc loads — owns its line, and
// shardArena tiles whole lines so its by-value embedding in shard cannot
// shear it.
func TestArenaLayout(t *testing.T) {
	var s arenaSlab
	if sz := unsafe.Sizeof(s); sz != 2*lineBytes {
		t.Errorf("arenaSlab size %d, want two lines (metadata, lease word)", sz)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	word := unsafe.Offsetof(s.word)
	if word != lineBytes {
		t.Errorf("word at offset %d, want %d (the slab's second line)", word, lineBytes)
	}
	for name, off := range map[string]uintptr{
		"buf":   unsafe.Offsetof(s.buf),
		"base":  unsafe.Offsetof(s.base),
		"state": unsafe.Offsetof(s.state),
	} {
		if lineOf(off) == lineOf(word) {
			t.Errorf("%s (offset %d) shares the lease word's line", name, off)
		}
	}

	var a shardArena
	if sz := unsafe.Sizeof(a); sz%lineBytes != 0 {
		t.Errorf("shardArena size %d is not a multiple of %d", sz, lineBytes)
	}
	if off := unsafe.Offsetof(a.cur); off != 0 {
		t.Errorf("cur at offset %d, want 0 (the warm alloc's only load)", off)
	}
	if lineOf(unsafe.Offsetof(a.tab)) == lineOf(unsafe.Offsetof(a.cur)) {
		t.Error("tab shares cur's line: refill republish invalidates the warm alloc line")
	}
}

// TestOffloadLayout pins the staging slot tiling: offloadLane.slots is
// an array, so each job must occupy exactly one line or neighbouring
// producers and copiers false-share their handoffs — the same rule as
// ringSlot and workerBeat.
func TestOffloadLayout(t *testing.T) {
	var j offloadJob
	if sz := unsafe.Sizeof(j); sz != lineBytes {
		t.Errorf("offloadJob size %d, want exactly one line", sz)
	}
	var l offloadLane
	if off := unsafe.Offsetof(l.slots); off%8 != 0 {
		t.Errorf("slots at offset %d is not word-aligned", off)
	}
}
