package rt

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func bindNull(t *testing.T, sys *System, name string) *Service {
	t.Helper()
	svc, err := sys.Bind(ServiceConfig{Name: name, Handler: func(ctx *Ctx, args *Args) {
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestConfigureTenantValidation(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	cases := []struct {
		id  TenantID
		cfg TenantConfig
	}{
		{0, TenantConfig{Rate: 1, Burst: 1}},          // zero is the "no tenant" sentinel
		{MaxTenants, TenantConfig{Rate: 1, Burst: 1}}, // table bound
		{1, TenantConfig{Rate: 0, Burst: 1}},          // no rate
		{1, TenantConfig{Rate: -5, Burst: 1}},         // negative rate
		{1, TenantConfig{Rate: 1, Burst: 0}},          // no burst
	}
	for _, c := range cases {
		if err := sys.ConfigureTenant(c.id, c.cfg); err == nil {
			t.Errorf("ConfigureTenant(%d, %+v) accepted", c.id, c.cfg)
		}
	}
	if err := sys.ConfigureTenant(1, TenantConfig{Rate: 100, Burst: 10}); err != nil {
		t.Fatalf("valid ConfigureTenant = %v", err)
	}
}

// TestTenantBurstAndThrottle pins the bucket semantics: a tenant gets
// its burst back-to-back, the next call sheds with ErrShed before
// admission (TenantThrottled counts it), and an untenanted client on
// the same shard is untouched.
func TestTenantBurstAndThrottle(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "tnull")
	// Rate 0.001/s: no refill interval can elapse within the test, so
	// the burst is the whole budget.
	if err := sys.ConfigureTenant(3, TenantConfig{Rate: 0.001, Burst: 3}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 3})
	free := sys.NewClientWith(ClientOptions{})
	var args Args
	for i := 0; i < 3; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("over-budget call = %v, want ErrShed", err)
	}
	if err := c.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("over-budget async call = %v, want ErrShed", err)
	}
	if got := sys.Stats()[0].TenantThrottled; got != 2 {
		t.Fatalf("TenantThrottled = %d, want 2", got)
	}
	// No-tenant traffic never touches a bucket.
	for i := 0; i < 10; i++ {
		if err := free.Call(svc.EP(), &args); err != nil {
			t.Fatalf("untenanted call: %v", err)
		}
	}
}

// TestTenantUnconfiguredID: a client naming a tenant nobody configured
// admits freely — like a service without a health gate.
func TestTenantUnconfiguredID(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "unull")
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 42})
	var args Args
	for i := 0; i < 32; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatalf("call %d under unconfigured tenant: %v", i, err)
		}
	}
	if got := sys.Stats()[0].TenantThrottled; got != 0 {
		t.Fatalf("TenantThrottled = %d, want 0", got)
	}
}

// TestTenantRefill pins the refill path: once the bucket is drained, a
// throttled caller earns admission back at the configured rate — via
// the takeSlowN catch-up refill, the only refill a bucket gets: no tick
// ever credits one.
func TestTenantRefill(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "rnull")
	if err := sys.ConfigureTenant(5, TenantConfig{Rate: 1000, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 5})
	var args Args
	for i := 0; i < 2; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	// The bucket may or may not have earned a token back already;
	// either way it must recover within a second at 1000/s.
	waitCond(t, time.Second, "throttled tenant earned a token back", func() bool {
		return c.Call(svc.EP(), &args) == nil
	})
}

// TestTenantBurstAfterIdle pins Burst's contract on the wall clock: a
// bucket left full for six refill intervals admits its burst
// back-to-back, not the burst plus the idle time's credit. The one
// extra admission allowed is an interval elapsing mid-drain on a
// stalled machine; paying out the idle credit would admit 2 × burst.
func TestTenantBurstAfterIdle(t *testing.T) {
	const burst = 3
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "inull")
	if err := sys.ConfigureTenant(6, TenantConfig{Rate: 100, Burst: burst}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 6})
	defer c.Release()
	time.Sleep(60 * time.Millisecond)
	n := 0
	for c.Call(svc.EP(), &Args{}) == nil {
		n++
	}
	if n < burst || n > burst+1 {
		t.Errorf("%d admitted back-to-back after 60 ms idle at 100/s, burst %d; want %d (%d on a stalled drain)", n, burst, burst, burst+1)
	}
}

// TestTenantRefillCursorRace hammers refill's cursor CAS with no clock:
// every goroutine credits the same bucket at the same sequence of
// instants, one interval apart. The CAS elects one creditor per
// interval, so the bucket ends with exactly one token per interval and
// its cursor on the last instant. A cursor written without the CAS
// credits an interval twice, or moves the cursor back, and over-credits.
func TestTenantRefillCursorRace(t *testing.T) {
	const steps, racers = 20000, 4
	b := &tenantBucket{interval: 1, burst: 1 << 40}
	var wg sync.WaitGroup
	for range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := int64(1); now <= steps; now++ {
				b.refill(now)
			}
		}()
	}
	wg.Wait()
	if got, cur := b.tokens.Load(), b.lastRefill.Load(); got != steps || cur != steps {
		t.Errorf("tokens %d, cursor %d after %d racers credited %d intervals; want %d and %d", got, cur, racers, steps, steps, steps)
	}
}

// TestTenantReconfigure:replacing a budget takes effect on the very
// next call, with a fresh full burst.
func TestTenantReconfigure(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "cnull")
	if err := sys.ConfigureTenant(2, TenantConfig{Rate: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 2})
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("drained bucket = %v, want ErrShed", err)
	}
	if err := sys.ConfigureTenant(2, TenantConfig{Rate: 0.001, Burst: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatalf("call %d after reconfigure: %v", i, err)
		}
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("re-drained bucket = %v, want ErrShed", err)
	}
}

// TestTenantBatchAllOrNothing pins batch admission: a flush is charged
// whole — a batch the budget cannot cover is shed in full (no partial
// acceptance), counted per request, and the batch resets for reuse.
func TestTenantBatchAllOrNothing(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "bnull2")
	if err := sys.ConfigureTenant(6, TenantConfig{Rate: 0.001, Burst: 3}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 6})
	done := make(chan struct{}, 4)
	b := c.NewBatch(svc.EP(), 4)
	b.SetNotify(done)
	var args Args
	b.Add(&args)
	b.Add(&args)
	if n, err := b.Flush(); err != nil || n != 2 {
		t.Fatalf("first Flush = (%d, %v), want (2, nil)", n, err)
	}
	<-done
	<-done
	// One token left; a 2-request batch must shed whole.
	b.Add(&args)
	b.Add(&args)
	if n, err := b.Flush(); !errors.Is(err, ErrShed) || n != 0 {
		t.Fatalf("over-budget Flush = (%d, %v), want (0, ErrShed)", n, err)
	}
	if b.Len() != 0 {
		t.Fatalf("shed batch not reset: Len = %d", b.Len())
	}
	if got := sys.Stats()[0].TenantThrottled; got != 2 {
		t.Fatalf("TenantThrottled = %d, want 2 (one per shed request)", got)
	}
	// The remaining token is still there for a batch the budget covers.
	if n, err := c.async(svc.EP(), []Args{args}, nil, 0); err != nil || n != 1 {
		t.Fatalf("batch within budget = (%d, %v)", n, err)
	}
	waitCond(t, 2*time.Second, "accepted batch drained", func() bool {
		return sys.Stats()[0].AsyncQueueDepth == 0
	})
}

// TestTenantShedReleasesPayload: a tenant shed settles the request's
// payload leases at the admission gate — nothing leaks even though the
// request never reaches a ring.
func TestTenantShedReleasesPayload(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc := bindNull(t, sys, "pnull2")
	if err := sys.ConfigureTenant(9, TenantConfig{Rate: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 9})
	defer c.Release()
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	ref, buf, err := c.AllocPayload(256)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 1
	args.AttachPayload(ref)
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("over-budget payload call = %v, want ErrShed", err)
	}
	if got := sys.Stats()[0].LeasesActive; got != 0 {
		t.Fatalf("LeasesActive = %d after tenant shed, want 0", got)
	}
}

// TestTenantRefillWithTickRunning: a shard whose tick is running (a
// worker spawned by an AsyncCall, supervision on a 1 ms period) refills
// a drained bucket exactly as a sync-only shard does — through the
// throttled callers' own catch-up refills, which race on the cursor CAS
// when several callers share the tenant. Over ~100 ms the tenant earns
// admission back, and never more than rate × elapsed + burst of it: the
// cursor elects one creditor per interval, and the tick credits nothing
// on top.
func TestTenantRefillWithTickRunning(t *testing.T) {
	const rate, burst, callers = 500, 2, 4
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc := bindNull(t, sys, "wnull")
	if err := sys.ConfigureTenant(4, TenantConfig{Rate: rate, Burst: burst}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 4})
	defer c.Release()
	var args Args
	if err := c.AsyncCall(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.qMu.Lock()
	ticking := sh.watchdogOn
	sh.qMu.Unlock()
	if !ticking {
		t.Fatal("the AsyncCall's worker started no tick")
	}
	// Drain: the first shed leaves the bucket empty, its cursor less than
	// one refill interval behind now.
	for c.Call(svc.EP(), &args) == nil {
	}
	start := time.Now()
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 4})
			defer c.Release()
			for time.Since(start) < 100*time.Millisecond {
				if err := c.Call(svc.EP(), &Args{}); err == nil {
					admitted.Add(1)
				} else if !errors.Is(err, ErrShed) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := int(admitted.Load())
	// The cursor trails the drain by under one interval: at most one
	// credit more than the elapsed time earns.
	if ceil := int(rate*elapsed.Seconds()) + burst; n > ceil {
		t.Errorf("%d admitted in %v, want at most rate × elapsed + burst = %d", n, elapsed, ceil)
	}
	// Loose: callers all descheduled for longer than the burst window
	// lose the credit past the cap.
	if floor := int(rate * elapsed.Seconds() / 10); n < floor {
		t.Errorf("%d admitted in %v, want at least %d: the drained tenant did not earn admission back", n, elapsed, floor)
	}
	t.Logf("%d admitted in %v by %d callers at %d/s, burst %d", n, elapsed, callers, rate, burst)
}

// TestSyncOnlySystemStartsNoGoroutine: a System that only ever calls
// synchronously — clients made, held and pooled calls, a payload, a
// configured tenant drained and refilled — starts no goroutine at all.
// The tick has no job there: no deadline executor, no async worker, and
// nothing else it would drive.
func TestSyncOnlySystemStartsNoGoroutine(t *testing.T) {
	leakCheck(t)
	base := goroutineSites()
	sys := NewSystemOptions(Options{Shards: 2, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc := bindNull(t, sys, "snull")
	if err := sys.ConfigureTenant(3, TenantConfig{Rate: 1000, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	plain := sys.NewClientWith(ClientOptions{Shard: -1})
	tenant := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 3})
	var args Args
	if err := plain.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := plain.CallPooled(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := plain.AttachBytes(&args, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := plain.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	sheds := 0
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
		if err := tenant.Call(svc.EP(), &Args{}); errors.Is(err, ErrShed) {
			sheds++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if sheds == 0 {
		t.Fatal("the tenant was never throttled: its refill path did not run")
	}
	if leaks := leakDiff(base); len(leaks) > 0 {
		t.Errorf("a sync-only System started goroutines:\n\t%s", strings.Join(leaks, "\n\t"))
	}
	plain.Release()
	tenant.Release()
}

// TestConfigureFirstTenantUnderTraffic: the first ConfigureTenant of a
// System publishes every shard's tenant table while tenant-tagged clients
// are already calling — they read the table on every call, unconfigured
// or not. Run with -race: the table must reach them through an atomic.
func TestConfigureFirstTenantUnderTraffic(t *testing.T) {
	needTwoPs(t)
	for round := 0; round < 20; round++ {
		sys := NewSystemOptions(Options{Shards: 1, WorkerStallThreshold: -1})
		svc, err := sys.Bind(ServiceConfig{Name: "tagged", Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var calling, wg sync.WaitGroup
		for _, async := range []bool{false, true} {
			calling.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := sys.NewClientWith(ClientOptions{Tenant: 7})
				defer c.Release()
				for i := 0; ; i++ {
					var err error
					if async {
						err = c.AsyncCall(svc.EP(), &Args{})
					} else {
						err = c.Call(svc.EP(), &Args{})
					}
					if i == 0 {
						calling.Done() // whatever the call returned: a failure must not hang the round
					}
					if err != nil && !errors.Is(err, ErrShed) && !errors.Is(err, ErrBackpressure) {
						t.Errorf("async %v, call %d: %v", async, i, err)
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		calling.Wait()
		if err := sys.ConfigureTenant(7, TenantConfig{Rate: 1e9, Burst: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		sys.Close()
	}
}
