package rt

import (
	"context"
	"testing"
	"time"
)

// TestWarmSyncCallAllocs pins the paper's no-allocation invariant for
// the warm synchronous call path: after the first Call pins a held
// descriptor to the client, Client.Call must not touch the heap. Under
// the race detector the assertion is report-only (instrumentation
// allocates).
func TestWarmSyncCallAllocs(t *testing.T) {
	sys := NewSystem()
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	ep := svc.EP()
	var args Args

	// Warm the shard's descriptor pool and run any first-call setup.
	for i := 0; i < 16; i++ {
		if err := c.Call(ep, &args); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Call(ep, &args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm sync call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm sync call allocates %.1f objects/op, want 0", allocs)
		}
	}
}

// TestWarmHeldCallAllocs pins the held-CD warm path explicitly: with a
// descriptor held (Figure 2's "hold CD"), Call is zero-alloc AND
// descriptor-stable — a warm loop creates no new CDs and never touches
// the pool. Report-only alloc assertion under -race; the CDsCreated
// check holds either way.
func TestWarmHeldCallAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "hnull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	ep := svc.EP()
	var args Args

	c.Hold()
	for i := 0; i < 16; i++ { // warm
		if err := c.Call(ep, &args); err != nil {
			t.Fatal(err)
		}
	}

	before := sys.Stats()[0]
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Call(ep, &args); err != nil {
			t.Fatal(err)
		}
	})
	after := sys.Stats()[0]
	if after.CDsCreated != before.CDsCreated {
		t.Fatalf("warm held loop created descriptors: %d -> %d", before.CDsCreated, after.CDsCreated)
	}
	if after.PooledCDs != before.PooledCDs || after.HeldCDs != 1 {
		t.Fatalf("warm held loop touched the pool: before %+v, after %+v", before, after)
	}
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm held call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm held call allocates %.1f objects/op, want 0", allocs)
		}
	}
}

// TestWarmPooledCallAllocs keeps the old per-call pool discipline
// honest: CallPooled pops and repushes a descriptor every call, and
// once the pool is warm that round trip is still zero-alloc.
// Report-only under -race.
func TestWarmPooledCallAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "pnull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	ep := svc.EP()
	var args Args

	for i := 0; i < 16; i++ { // warm the pool
		if err := c.CallPooled(ep, &args); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := c.CallPooled(ep, &args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm pooled call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm pooled call allocates %.1f objects/op, want 0", allocs)
		}
	}
}

// TestWarmAsyncCallAllocs extends the invariant to the ring path: a
// warm asynchronous submit→complete round trip — ring push, doorbell
// wake, batched dequeue, handler, notification — must not touch the
// heap. AllocsPerRun counts process-wide mallocs, so this covers the
// servicing worker too. Report-only under -race.
func TestWarmAsyncCallAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "anull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	ep := svc.EP()
	var args Args
	done := make(chan struct{}, 1)

	// Warm: spawn the worker, fill the descriptor pool, settle the
	// park/ring rhythm.
	for i := 0; i < 32; i++ {
		if err := c.AsyncCallNotify(ep, &args, done); err != nil {
			t.Fatal(err)
		}
		<-done
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := c.AsyncCallNotify(ep, &args, done); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm async call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm async call allocates %.1f objects/op, want 0", allocs)
		}
	}
}

// TestBatchFlushAllocs pins the batch path: staging into a warm Batch
// and flushing it — one admission, many ring slots — must not touch
// the heap either. Report-only under -race.
func TestBatchFlushAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "bnull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	const batchN = 8
	b := c.NewBatch(svc.EP(), batchN)
	done := make(chan struct{}, batchN)
	b.SetNotify(done)
	var args Args

	flushAndDrain := func() {
		for i := 0; i < batchN; i++ {
			b.Add(&args)
		}
		if n, err := b.Flush(); err != nil || n != batchN {
			t.Fatalf("Flush = (%d, %v)", n, err)
		}
		for i := 0; i < batchN; i++ {
			<-done
		}
	}
	for i := 0; i < 8; i++ { // warm
		flushAndDrain()
	}
	allocs := testing.AllocsPerRun(100, flushAndDrain)
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm Batch.Flush allocates %.1f objects/run under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm Batch.Flush allocates %.1f objects/run, want 0", allocs)
		}
	}
}

// TestWarmPayloadBatchAllocs: a warm batch of payload-carrying requests
// — sixteen leases outstanding between the first Add and the Flush, so
// the client's lease slots run into their appended blocks — allocates
// nothing: the blocks are kept once made. Report-only under -race.
func TestWarmPayloadBatchAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "bpay", Handler: func(ctx *Ctx, args *Args) {
		_ = ctx.Payload(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	const batchN = 16
	b := c.NewBatch(svc.EP(), batchN)
	done := make(chan struct{}, batchN)
	b.SetNotify(done)
	flushAndDrain := func() {
		for i := 0; i < batchN; i++ {
			ref, buf, err := c.AllocPayload(256)
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(i)
			var args Args
			args.AttachPayload(ref)
			b.Add(&args)
		}
		if n, err := b.Flush(); err != nil || n != batchN {
			t.Fatalf("Flush = (%d, %v)", n, err)
		}
		for i := 0; i < batchN; i++ {
			<-done
		}
	}
	for i := 0; i < 8; i++ { // warm
		flushAndDrain()
	}
	if allocs := testing.AllocsPerRun(100, flushAndDrain); allocs != 0 {
		if raceEnabled {
			t.Logf("warm payload batch allocates %.1f objects/run under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm payload batch allocates %.1f objects/run, want 0", allocs)
		}
	}
	waitCond(t, 2*time.Second, "leases to settle", func() bool { return sys.Stats()[0].LeasesActive == 0 })
}

// TestWarmPayloadCallAllocs pins the zero-copy payload path's
// no-allocation invariant: a warm Call carrying an arena payload —
// AllocPayload, fill, AttachPayload, handler views in place, settle
// releases the lease — must not touch the heap. Report-only under
// -race.
func TestWarmPayloadCallAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	var seen int
	svc, err := sys.Bind(ServiceConfig{Name: "zcp", Handler: func(ctx *Ctx, args *Args) {
		seen += len(ctx.Payload(0))
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	ep := svc.EP()
	var args Args

	oneCall := func() {
		ref, buf, err := c.AllocPayload(512)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 1
		args.AttachPayload(ref)
		if err := c.Call(ep, &args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm: grow the arena's first slab
		oneCall()
	}
	allocs := testing.AllocsPerRun(200, oneCall)
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm payload call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm payload call allocates %.1f objects/op, want 0", allocs)
		}
	}
	if seen == 0 {
		t.Fatal("handler never observed the payload")
	}
}

// TestWarmPayloadAsyncAllocs extends the payload invariant to the ring
// path: an asynchronous submit whose args carry a payload descriptor —
// ring slot copy, worker dequeue, in-place view, worker-side lease
// settle — must not touch the heap either. Report-only under -race.
func TestWarmPayloadAsyncAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "azcp", Handler: func(ctx *Ctx, args *Args) {
		_ = ctx.Payload(0)
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	ep := svc.EP()
	var args Args
	done := make(chan struct{}, 1)

	oneCall := func() {
		ref, buf, err := c.AllocPayload(512)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 1
		args.AttachPayload(ref)
		if err := c.AsyncCallNotify(ep, &args, done); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	for i := 0; i < 32; i++ { // warm: worker, pool, arena slab
		oneCall()
	}
	allocs := testing.AllocsPerRun(200, oneCall)
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm async payload call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm async payload call allocates %.1f objects/op, want 0", allocs)
		}
	}
}

// TestWarmCallDeadlineAllocs pins the warm deadline path: with the
// executor armed and the ticket and its two channels reused, a
// CallDeadline that completes in time must not touch the
// heap — and neither must a cancel-only CallContext, whose wait is the
// two-way select rather than the plain receive.
// Report-only under -race (instrumentation allocates).
func TestWarmCallDeadlineAllocs(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "dnull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	ep := svc.EP()
	var args Args
	const d = 10 * time.Second

	for i := 0; i < 16; i++ {
		if err := c.CallDeadline(ep, &args, d); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"CallDeadline", func() error { return c.CallDeadline(ep, &args, d) }},
		{"cancel-only CallContext", func() error { return c.CallContext(ctx, ep, &args) }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			if raceEnabled {
				t.Logf("warm %s allocates %.1f objects/op under -race (report-only)", tc.name, allocs)
			} else {
				t.Fatalf("warm %s allocates %.1f objects/op, want 0", tc.name, allocs)
			}
		}
	}
}

// TestWarmLaneTenantAsyncAllocs extends the invariant to the QoS path:
// a warm async round trip through a lane-configured shard, with a
// tenant bucket charged on every admission, must still be zero-alloc —
// the lane adds one ring choice and the tenant one fetch-add, neither
// of which may touch the heap. Report-only under -race.
func TestWarmLaneTenantAsyncAllocs(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1, Lanes: 3})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "qnull", Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget: the warm loop must never hit the slow path.
	if err := sys.ConfigureTenant(1, TenantConfig{Rate: 1e9, Burst: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical, Tenant: 1})
	ep := svc.EP()
	var args Args
	done := make(chan struct{}, 1)

	for i := 0; i < 32; i++ { // warm
		if err := c.AsyncCallNotify(ep, &args, done); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.AsyncCallNotify(ep, &args, done); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs != 0 {
		if raceEnabled {
			t.Logf("warm lane+tenant async call allocates %.1f objects/op under -race (report-only)", allocs)
		} else {
			t.Fatalf("warm lane+tenant async call allocates %.1f objects/op, want 0", allocs)
		}
	}
}
