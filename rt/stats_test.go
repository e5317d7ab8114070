package rt

import (
	"testing"
	"time"
)

func TestShardStats(t *testing.T) {
	sys := newSystem(t, Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c0 := sys.NewClientWith(ClientOptions{})
	var args Args
	for i := 0; i < 5; i++ {
		if err := c0.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	stats := sys.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d shards", len(stats))
	}
	if stats[0].CDsCreated != 1 || stats[0].PooledCDs != 0 || stats[0].HeldCDs != 1 {
		t.Fatalf("shard 0 stats = %+v, want one CD held by the client", stats[0])
	}
	if stats[1].CDsCreated != 0 {
		t.Fatalf("shard 1 created CDs without traffic: %+v", stats[1])
	}
	c0.Release()
	if st := sys.Stats()[0]; st.PooledCDs != 1 || st.HeldCDs != 0 {
		t.Fatalf("shard 0 stats after Release = %+v, want the CD repooled", st)
	}
	done := make(chan struct{}, 1)
	if err := asyncOne(c0, svc.EP(), &args, done, 0); err != nil {
		t.Fatal(err)
	}
	<-done
	st := sys.Stats()[0]
	if st.AsyncWorkers == 0 {
		t.Fatal("async worker not accounted")
	}
	if st.AsyncQueueCap != defaultAsyncQueueCap {
		t.Fatalf("AsyncQueueCap = %d", st.AsyncQueueCap)
	}
	if st.BackpressureRejects != 0 || st.WorkerExits != 0 {
		t.Fatalf("idle lifecycle counters nonzero: %+v", st)
	}
	sys.Close()
	st = sys.Stats()[0]
	if st.AsyncWorkers != 0 || st.WorkerExits == 0 || st.AsyncQueueDepth != 0 {
		t.Fatalf("post-close stats: %+v", st)
	}
}

// TestPayloadStats exercises the arena/offload counters: LeasesActive
// tracks outstanding payload leases as a gauge, ArenaGrows counts slab
// allocations (strictly cold: a warm loop within one slab never grows),
// and the offload pair (OffloadedBytes, OffloadQueueDepth) reflects the
// staging lane's traffic and convergence.
func TestPayloadStats(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1, OffloadThreshold: 1024})
	svc, err := sys.Bind(ServiceConfig{Name: "pstat", Handler: func(ctx *Ctx, args *Args) {
		_ = ctx.Payload(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()

	if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ArenaGrows != 0 {
		t.Fatalf("idle arena stats: %+v", st)
	}
	ref, _, err := c.AllocPayload(256)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()[0]
	if st.LeasesActive != 1 {
		t.Fatalf("LeasesActive = %d with one payload leased", st.LeasesActive)
	}
	if st.ArenaGrows != 1 {
		t.Fatalf("ArenaGrows = %d after first slab, want 1", st.ArenaGrows)
	}
	c.ReleasePayload(ref)
	if st := sys.Stats()[0]; st.LeasesActive != 0 {
		t.Fatalf("LeasesActive = %d after release", st.LeasesActive)
	}

	// A warm loop inside one slab must never grow the arena — growth is
	// strictly cold, capacity-guarded like growScratch.
	var args Args
	for i := 0; i < 200; i++ {
		ref, _, err := c.AllocPayload(4096)
		if err != nil {
			t.Fatal(err)
		}
		args.AttachPayload(ref)
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	st = sys.Stats()[0]
	if st.ArenaGrows != 1 {
		t.Fatalf("warm in-slab loop grew the arena: ArenaGrows = %d", st.ArenaGrows)
	}
	if st.LeasesActive != 0 {
		t.Fatalf("warm loop leaked leases: %d", st.LeasesActive)
	}

	// Offload traffic moves the byte counter; the queue drains to zero.
	big := make([]byte, 64<<10)
	if err := c.AttachBytes(&args, big); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	// The copier frees its slot before it drops the copy lease, so the
	// two gauges converge one after the other.
	waitCond(t, 2*time.Second, "offload queue drain and lease settle", func() bool {
		st := sys.Stats()[0]
		return st.OffloadQueueDepth == 0 && st.LeasesActive == 0
	})
	if sys.Stats()[0].OffloadedBytes == 0 {
		t.Fatal("staged transfer not counted in OffloadedBytes")
	}
}

// TestQoSStats exercises the lane/tenant counters added to ShardStats:
// LaneDepth and ShedByLane stay zero on a single-lane shard and move
// only on the lane that shed; TenantThrottled counts budget sheds.
func TestQoSStats(t *testing.T) {
	// Single-lane shard: the QoS fields exist but stay zero.
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "q0", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()[0]
	if st.LaneDepth != ([NumLaneClasses]int{}) || st.ShedByLane != ([NumLaneClasses]int64{}) || st.TenantThrottled != 0 {
		t.Fatalf("single-lane QoS stats moved: %+v", st)
	}
	sys.Close()

	// Lane shard under overload: the best-effort shed and the tenant
	// throttle land in their own counters, nothing else moves.
	sys = newSystem(t, Options{
		Shards:               1,
		Lanes:                3,
		AsyncQueueCap:        4,
		WorkerStallThreshold: -1,
	})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err = sys.Bind(ServiceConfig{Name: "q1", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ConfigureTenant(1, TenantConfig{Rate: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	be := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})
	ten := sys.NewClientWith(ClientOptions{Shard: 0, Tenant: 1})
	var wedge Args
	wedge[0] = 1
	if err := be.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < 4; i++ {
		if err := be.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.AsyncCall(svc.EP(), &args); err == nil {
		t.Fatal("expected best-effort shed")
	}
	if err := ten.Call(svc.EP(), &args); err != nil { // burst of 1
		t.Fatal(err)
	}
	if err := ten.Call(svc.EP(), &args); err == nil {
		t.Fatal("expected tenant throttle")
	}
	st = sys.Stats()[0]
	if st.LaneDepth[2] != 4 || st.ShedByLane[2] != 1 || st.ShedByLane[0] != 0 || st.ShedByLane[1] != 0 {
		t.Fatalf("lane counters: %+v", st)
	}
	if st.TenantThrottled != 1 {
		t.Fatalf("TenantThrottled = %d, want 1", st.TenantThrottled)
	}
	close(block)
	// The running worker drains the lane, not Close.
	awaitAudit(t, sys)
}

// TestDomainDeathStats exercises the four counters the domain-death
// protocol added to ShardStats: AbandonedClients counts death
// declarations (every mode), ScavengedCDs and ScavengedLeases count the
// scavenger's reclamations, and TombstonedCompletions counts in-flight
// calls that settled through the tombstone CAS.
func TestDomainDeathStats(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1, WatchdogInterval: time.Millisecond})
	var inFlight *Client
	svc, err := sys.Bind(ServiceConfig{Name: "dd", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			inFlight.Abandon() // dies mid-call: the completion tombstones
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats()[0]; st.AbandonedClients != 0 || st.ScavengedCDs != 0 ||
		st.ScavengedLeases != 0 || st.TombstonedCompletions != 0 {
		t.Fatalf("idle death counters nonzero: %+v", st)
	}

	// Mode 1: abandoned mid-call — the completion settles through the
	// tombstone; no CD is left for the scavenger.
	inFlight = sys.NewClientWith(ClientOptions{})
	var args Args
	args[0] = 1
	if err := inFlight.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}

	// Mode 2: abandoned at rest with a held CD and two payload leases —
	// the scavenger reclaims all three.
	idle := sys.NewClientWith(ClientOptions{})
	args[0] = 0
	if err := idle.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := idle.AllocPayload(64); err != nil {
			t.Fatal(err)
		}
	}
	idle.Abandon()
	// ScavengedCDs is >= 1, not == 1: mode 1's completion usually wins
	// its tombstone CAS, but the scavenger is allowed to beat it to the
	// descriptor — either way exactly one party reclaims.
	waitCond(t, 2*time.Second, "scavenger convergence", func() bool {
		st := sys.Stats()[0]
		return st.ScavengedCDs >= 1 && st.ScavengedLeases == 2
	})
	st := sys.Stats()[0]
	if st.AbandonedClients != 2 {
		t.Fatalf("AbandonedClients = %d, want 2", st.AbandonedClients)
	}
	if st.TombstonedCompletions != 1 {
		t.Fatalf("TombstonedCompletions = %d, want 1", st.TombstonedCompletions)
	}
	if st.LeasesActive != 0 {
		t.Fatalf("LeasesActive = %d after scavenge", st.LeasesActive)
	}
}

// TestRobustnessStats exercises every counter the fault-tolerance
// layer added to ShardStats: deadline expirations and quarantines
// (deadline.go), stuck-worker supervision (watchdog.go), and health
// gating (health.go).
func TestRobustnessStats(t *testing.T) {
	sys := newSystem(t, Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc, err := sys.Bind(ServiceConfig{
		Name: "robust",
		Handler: func(ctx *Ctx, args *Args) {
			switch args[0] {
			case 1:
				entered <- struct{}{}
				<-block
			case 2:
				panic("counted fault")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	c := sys.NewClientWith(ClientOptions{})

	// Deadline expiry + quarantine: orphan one synchronous call.
	var wedge Args
	wedge[0] = 1
	if err := c.CallDeadline(svc.EP(), &wedge, time.Millisecond); err == nil {
		t.Fatal("expected deadline expiry")
	}
	<-entered
	st := sys.Stats()[0]
	if st.DeadlineExpirations != 1 || st.QuarantinedCDs != 1 {
		t.Fatalf("after orphan: %+v", st)
	}

	// Stuck worker: wedge the only async worker. Nothing is queued behind
	// it, so the room it makes stays empty.
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	waitCond(t, 2*time.Second, "stall detection", func() bool {
		return sys.Stats()[0].StuckWorkers == 1
	})
	if st := sys.Stats()[0]; st.AsyncWorkers != 1 {
		t.Fatalf("AsyncWorkers = %d behind a wedge with an empty ring, want 1", st.AsyncWorkers)
	}

	// Health trip + shed: two faults in a row, then a shed call.
	var bad, good Args
	bad[0] = 2
	c.Call(svc.EP(), &bad)
	c.Call(svc.EP(), &bad)
	c.Call(svc.EP(), &good)
	st = sys.Stats()[0]
	if st.HealthTrips != 1 || st.ShedCalls == 0 {
		t.Fatalf("after trip: %+v", st)
	}

	// Recovery: unblock everything; quarantine reclaimed, pool
	// converges, gauges return to zero.
	close(block)
	waitCond(t, 2*time.Second, "quarantine and supervision recovery", func() bool {
		st := sys.Stats()[0]
		return st.QuarantinedCDs == 0 && st.StuckWorkers == 0 && st.AsyncWorkers == 1
	})
}
