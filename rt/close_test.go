package rt

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestCloseStopsAsyncWorkers(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	done := make(chan struct{}, 8)
	svc, err := sys.Bind(ServiceConfig{Name: "a", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: -1})
	var args Args
	for i := 0; i < 4; i++ {
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if w := sys.Stats()[0].AsyncWorkers; w == 0 {
		t.Fatal("no async worker accounted while the pool is live")
	}
	before := runtime.NumGoroutine()
	sys.Close()
	sys.Close() // idempotent
	// Close joins the workers, so the goroutines are gone on return.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() >= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runtime.NumGoroutine() >= before {
		t.Fatalf("async workers leaked: %d goroutines, was %d", runtime.NumGoroutine(), before)
	}
	// Worker exit decrements the live count (no stale workers reported
	// post-close) and is visible in the exit counter.
	st := sys.Stats()[0]
	if st.AsyncWorkers != 0 {
		t.Fatalf("Stats().AsyncWorkers = %d after Close, want 0", st.AsyncWorkers)
	}
	if st.WorkerExits == 0 {
		t.Fatal("Stats().WorkerExits = 0 after Close, want the joined workers counted")
	}
	// Async submissions are rejected; synchronous calls still work.
	if err := c.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrClosed) {
		t.Fatalf("async after close: %v", err)
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("sync call after close failed: %v", err)
	}
	if n := svc.inFlightTotal(); n != 0 {
		t.Fatalf("inFlightTotal = %d after Close", n)
	}
}

// TestCloseFailsSubmitterInFullRingWait: Close waits for no submitter. A
// submission sitting out its bounded wait on a full ring whose worker is
// wedged must not hold Close up, and must learn on its next retry that
// the system is closed — ErrClosed, not an ErrBackpressure the shard
// then counts as overload — with its tail settled as any closed
// submission's is: leases released, asyncAdm taken back, the tenant
// charged once. (Before the ring carried the closed bit the submitter
// held a window open across its whole wait: Close sat out submitWait
// behind it and the submitter then reported backpressure.)
func TestCloseFailsSubmitterInFullRingWait(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1, AsyncQueueCap: 4, MaxWorkers: 1, WorkerStallThreshold: -1})
	sh := &sys.shards[0]
	sh.submitWait = 4 * time.Second // "well inside" is then far from scheduling noise
	const tenant = TenantID(7)
	if err := sys.ConfigureTenant(tenant, TenantConfig{Rate: 1, Burst: 1000}); err != nil {
		t.Fatal(err)
	}
	tokens := func() int64 { return sh.tenantBucketFor(tenant).tokens.Load() }
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	var ran atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "wedge", Handler: func(ctx *Ctx, args *Args) {
		ran.Add(1)
		if args[0] == 1 {
			entered <- struct{}{}
			<-gate
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Tenant: tenant})
	if err := c.AsyncCall(svc.EP(), &Args{1}); err != nil {
		t.Fatal(err)
	}
	<-entered // the one worker is wedged with an empty ring behind it
	for i := 0; i < 4; i++ {
		if err := c.AsyncCall(svc.EP(), &Args{}); err != nil {
			t.Fatalf("filling the ring, request %d: %v", i, err)
		}
	}
	// payloadBatch stages three requests with one leased segment each.
	payloadBatch := func(p *Client) []Args {
		reqs := make([]Args, 3)
		for i := range reqs {
			ref, _, err := p.AllocPayload(64)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i].AttachPayload(ref)
		}
		return reqs
	}
	type result struct {
		n   int
		err error
		at  time.Time
	}
	res := make(chan result, 1)
	p := sys.NewClientWith(ClientOptions{Tenant: tenant})
	reqs := payloadBatch(p)
	before, clock0 := tokens(), sh.clock.read()
	go func() {
		n, err := p.async(svc.EP(), reqs, nil, 0)
		res <- result{n, err, time.Now()}
	}()
	// Nothing else drives this shard's clock (no tick, no deadline): two
	// fresh readings are two rounds of the submitter's bounded wait.
	for i := 0; i < 2; i++ {
		waitCond(t, 5*time.Second, "the submitter to be inside the full-ring wait", func() bool {
			now := sh.clock.read()
			moved := now != clock0
			clock0 = now
			return moved
		})
	}
	closing := time.Now()
	if err := sys.CloseTimeout(20 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("CloseTimeout behind a wedged worker = %v, want ErrDrainTimeout", err)
	}
	if d := time.Since(closing); d > sh.submitWait/4 {
		t.Errorf("CloseTimeout(20ms) took %v: it waited for the submitter", d)
	}
	var r result
	select {
	case r = <-res:
	case <-time.After(sh.submitWait / 2):
		t.Fatal("the submitter is still in its bounded wait after Close")
	}
	if r.n != 0 || !errors.Is(r.err, ErrClosed) {
		t.Errorf("submission cut by Close = (%d, %v), want (0, ErrClosed)", r.n, r.err)
	}
	if d := r.at.Sub(closing); d > sh.submitWait/4 {
		t.Errorf("the submitter returned %v after Close began, want well inside submitWait (%v)", d, sh.submitWait)
	}
	settled := func(what string, charged int64) {
		t.Helper()
		st := sys.Stats()[0]
		if st.BackpressureRejects != 0 || sh.lanes[0].shed.Load() != 0 {
			t.Errorf("%s: BackpressureRejects = %d, lane shed = %d: a closed ring is not an overloaded one", what, st.BackpressureRejects, sh.lanes[0].shed.Load())
		}
		if st.LeasesActive != 0 {
			t.Errorf("%s: LeasesActive = %d, want the refused tail's leases released", what, st.LeasesActive)
		}
		if got := svc.AsyncCalls(); got != 5 {
			t.Errorf("%s: AsyncCalls = %d, want the 5 accepted requests", what, got)
		}
		if got := before - tokens(); got != charged {
			t.Errorf("%s: tenant charged %d tokens, want %d", what, got, charged)
		}
	}
	settled("cut by Close", 3)
	// The same submission made after Close settles the same way.
	if n, err := p.async(svc.EP(), payloadBatch(p), nil, 0); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("submission after Close = (%d, %v), want (0, ErrClosed)", n, err)
	}
	settled("after Close", 6)
	// Closed outranks an injected refusal too: a chaos run that keeps the
	// submit fault armed across Close must not see overload counted.
	sys.InjectFault(faultSiteSubmit, FaultErrFirst(1, ErrBackpressure))
	if n, err := p.async(svc.EP(), payloadBatch(p), nil, 0); n != 0 || !errors.Is(err, ErrClosed) {
		t.Errorf("submission after Close with the submit fault armed = (%d, %v), want (0, ErrClosed)", n, err)
	}
	settled("after Close, submit fault armed", 9)
	// What Close found accepted still runs, once, when the worker comes back.
	close(gate)
	waitCond(t, 5*time.Second, "the accepted requests to drain", func() bool {
		st := sys.Stats()[0]
		return ran.Load() == 5 && svc.inFlightTotal() == 0 && st.AsyncQueueDepth == 0 && st.AsyncWorkers == 0
	})
}
