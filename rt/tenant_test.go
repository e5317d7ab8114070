package rt

import (
	"errors"
	"sync"
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
	sys := NewSystemShards(1)
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
	sys := NewSystemShards(1)
	defer sys.Close()
	svc := bindNull(t, sys, "tnull")
	// Rate 0.001/s: no refill interval can elapse within the test, so
	// the burst is the whole budget.
	if err := sys.ConfigureTenant(3, TenantConfig{Rate: 0.001, Burst: 3}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 3})
	free := sys.NewClientOnShard(0)
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
	sys := NewSystemShards(1)
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
// the takeSlowN catch-up refill, so the test holds even before any
// watchdog tick lands.
func TestTenantRefill(t *testing.T) {
	sys := NewSystemShards(1)
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

// TestTenantReconfigure: replacing a budget takes effect on the very
// next call, with a fresh full burst.
func TestTenantReconfigure(t *testing.T) {
	sys := NewSystemShards(1)
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
	sys := NewSystemShards(1)
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
	if n, err := c.AsyncBatch(svc.EP(), []Args{args}); err != nil || n != 1 {
		t.Fatalf("AsyncBatch within budget = (%d, %v)", n, err)
	}
	waitCond(t, 2*time.Second, "accepted batch drained", func() bool {
		return sys.Stats()[0].AsyncQueueDepth == 0
	})
}

// TestTenantShedReleasesPayload: a tenant shed settles the request's
// payload leases at the admission gate — nothing leaks even though the
// request never reaches a ring.
func TestTenantShedReleasesPayload(t *testing.T) {
	sys := NewSystemShards(1)
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

// TestTenantWatchdogRefill: with a watchdog running, buckets are
// credited from the supervision tick alone — no caller needs to hit
// the takeSlowN path for the budget to recover.
func TestTenantWatchdogRefill(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: time.Millisecond,
	})
	defer sys.Close()
	svc := bindNull(t, sys, "wnull")
	if err := sys.ConfigureTenant(4, TenantConfig{Rate: 500, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 4})
	var args Args
	// An async call spawns the worker, whose shard runs the watchdog.
	if err := c.AsyncCall(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	// Drain whatever credit is left directly, then watch the watchdog
	// put tokens back without any call traffic.
	b := sh.tenantBucketFor(4)
	if b == nil {
		t.Fatal("no bucket on shard 0")
	}
	for b.tokens.Add(-1) >= 0 {
	}
	b.tokens.Add(1) // undo the failed decrement
	waitCond(t, time.Second, "watchdog refilled the bucket", func() bool {
		return b.tokens.Load() > 0
	})
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
