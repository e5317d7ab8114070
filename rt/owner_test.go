package rt

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Domain-death protocol unit tests: the packed ownership word, the
// three death modes (Abandon, liveness epochs, the AddCleanup
// backstop), and the scavenger's per-holding reclamation. The storm
// version lives in chaos_test.go (TestChaosDomainDeath); these pin
// each mechanism in isolation.

func TestOwnerWordPacking(t *testing.T) {
	w := packOwner(7, 42, owDead)
	if ownerGen(w) != 7 {
		t.Fatalf("gen = %d", ownerGen(w))
	}
	if ownerState(w) != owDead {
		t.Fatalf("state = %d", ownerState(w))
	}
	if !ownerIs(w, 42) || ownerIs(w, 43) {
		t.Fatal("ownerIs mismatch")
	}
	// The id field truncates to 29 bits; ids equal mod 2^29 collide in
	// the word (the gen tag is what keeps a stale CAS from succeeding).
	if !ownerIs(packOwner(0, 1<<ownerIDBits|5, owHeld), 5) {
		t.Fatal("id truncation changed the masked comparison")
	}
	// State and id never bleed into each other or into the gen.
	w = packOwner(0, ^uint32(0), owDead)
	if ownerGen(w) != 0 {
		t.Fatalf("max id leaked into gen: %#x", w)
	}
	if ownerState(w) != owDead {
		t.Fatalf("max id leaked into state: %#x", w)
	}
}

// TestAbandonReclaimsHeldCD: the explicit death mode. Abandon is
// idempotent, the scavenger condemns the held descriptor and
// compensates the pool with a fresh one, and every later call on the
// client fails with ErrClientAbandoned.
func TestAbandonReclaimsHeldCD(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if !c.Held() || c.Abandoned() {
		t.Fatalf("pre-abandon: held = %v, abandoned = %v", c.Held(), c.Abandoned())
	}
	c.Abandon()
	c.Abandon() // idempotent: the counter must not double
	if !c.Abandoned() {
		t.Fatal("Abandoned() = false after Abandon")
	}
	waitCond(t, 2*time.Second, "CD scavenge", func() bool {
		return sh.heldCDs.Load() == 0 && sh.poolSize() == 1
	})
	st := sys.Stats()[0]
	if st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("death counters: %+v", st)
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("call after abandon: %v", err)
	}
	// The pool was compensated with a fresh descriptor (the condemned
	// one is never repooled — a plain call could have been secretly in
	// flight on it), so a fresh client works and descriptor creation
	// counts exactly one compensation.
	c2 := sys.NewClientOnShard(0)
	if err := c2.Call(svc.EP(), &args); err != nil || sh.cdsCreated.Load() != 2 {
		t.Fatalf("compensation after scavenge: %v, cdsCreated = %d", err, sh.cdsCreated.Load())
	}
	c2.Release()
}

// TestAbandonMidCallTombstones: a call in flight when its client is
// abandoned completes normally and settles itself through the
// tombstone CAS — the completion is never lost and the descriptor is
// reclaimed exactly once.
func TestAbandonMidCallTombstones(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	var c *Client
	svc, err := sys.Bind(ServiceConfig{Name: "t", Handler: func(ctx *Ctx, args *Args) {
		c.Abandon() // the cross-goroutine entry point, used in-goroutine
		args[0] = 77
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil || args[0] != 77 {
		t.Fatalf("in-flight call: %v, args[0] = %d (the completion must land)", err, args[0])
	}
	st := sys.Stats()[0]
	if st.TombstonedCompletions != 1 || st.AbandonedClients != 1 {
		t.Fatalf("tombstone counters: %+v", st)
	}
	// The tombstone exit reclaimed the descriptor itself (the scavenger
	// saw nothing left to do).
	if sh.heldCDs.Load() != 0 || sh.poolSize() != 1 {
		t.Fatalf("after tombstone: heldCDs = %d, poolSize = %d", sh.heldCDs.Load(), sh.poolSize())
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("call after mid-call abandon: %v", err)
	}
}

// TestAbandonReclaimsLeases: unattached payload leases — inline slots
// and the spill path both — go back to the arena when the client dies,
// and the payload API fails closed afterwards.
func TestAbandonReclaimsLeases(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	c := sys.NewClientOnShard(0)
	const n = recLeaseSlots + 4 // force the spill path
	for i := 0; i < n; i++ {
		if _, _, err := c.AllocPayload(128); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.Stats()[0]; st.LeasesActive != n {
		t.Fatalf("LeasesActive = %d, want %d", st.LeasesActive, n)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "lease scavenge", func() bool {
		return sys.Stats()[0].LeasesActive == 0
	})
	st := sys.Stats()[0]
	if st.ScavengedLeases != n {
		t.Fatalf("ScavengedLeases = %d, want %d", st.ScavengedLeases, n)
	}
	if _, _, err := c.AllocPayload(128); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("AllocPayload after scavenge: %v", err)
	}
}

// TestAbandonReclaimsBatch: payload leases staged into an unflushed
// batch are settled by the scavenger, and Flush on the dead client
// fails with ErrClientAbandoned instead of submitting.
func TestAbandonReclaimsBatch(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	b := c.NewBatch(svc.EP(), 4)
	for i := 0; i < 3; i++ {
		ref, _, err := c.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		var args Args
		args.AttachPayload(ref)
		b.Add(&args)
	}
	if b.Len() != 3 {
		t.Fatalf("staged %d", b.Len())
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "batch scavenge", func() bool {
		return sys.Stats()[0].LeasesActive == 0
	})
	if st := sys.Stats()[0]; st.ScavengedLeases != 3 {
		t.Fatalf("ScavengedLeases = %d, want 3", st.ScavengedLeases)
	}
	if n, err := b.Flush(); n != 0 || !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("Flush after scavenge: n = %d, err = %v", n, err)
	}
}

// TestBatchAddAfterScavengeReleasesOnce: a payload leased before the
// client died and staged after the scavenger drained its record is
// released once, by the drain. Add's declined branch used to release it
// again, taking the slab's lease count to −1 — the domain-death storm
// saw it as LeasesActive never converging, about one run in 130.
func TestBatchAddAfterScavengeReleasesOnce(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	b := c.NewBatch(svc.EP(), 4)
	ref, _, err := c.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "scavenge of the tracked lease", func() bool {
		return sys.Stats()[0].ScavengedLeases == 1
	})
	var args Args
	args.AttachPayload(ref)
	b.Add(&args)
	if st := sys.Stats()[0]; st.LeasesActive != 0 || b.Len() != 0 {
		t.Fatalf("after Add on the scavenged client: LeasesActive = %d, staged %d; want 0, 0", st.LeasesActive, b.Len())
	}
}

// TestAbandonLeavesExecutorPool: a client holds nothing for the deadline
// path, so abandoning one that has made deadline calls leaves the shard's
// executor where it was — parked, on the list, holding its own descriptor —
// for the next client, and the scavenger finds nothing to condemn. Close
// retires it (leakCheck).
func TestAbandonLeavesExecutorPool(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "d", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats()[0]; st.HeldCDs != 0 || st.PooledCDs != 0 {
		t.Fatalf("HeldCDs = %d, PooledCDs = %d with one executor made, want 0 and 0: its descriptor is its own", st.HeldCDs, st.PooledCDs)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "the scavenger to reap the client", func() bool {
		return sh.reg.dead.Load() == 0 && sys.Stats()[0].AbandonedClients == 1
	})
	if err := sys.NewClientOnShard(0).CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatalf("the next client's deadline call: %v", err)
	}
	if st := sys.Stats()[0]; st.ScavengedCDs != 0 || st.HeldCDs != 0 || st.CDsCreated != 1 || sh.deadlineExecs() != 1 || idleExecs(sh) != 1 {
		t.Fatalf("ScavengedCDs = %d, HeldCDs = %d, CDsCreated = %d, %d executors (%d idle); want 0, 0 and the one executor, reused",
			st.ScavengedCDs, st.HeldCDs, st.CDsCreated, sh.deadlineExecs(), idleExecs(sh))
	}
}

// TestLivenessEpochDeath: the missed-heartbeat death mode. An enrolled
// client that stops stamping beats for its whole epoch budget is
// declared dead and scavenged; a client that keeps calling is not.
func TestLivenessEpochDeath(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "hb", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	beating := sys.NewClientWith(ClientOptions{Shard: 0, LivenessEpochs: 2000})
	idle := sys.NewClientWith(ClientOptions{Shard: 0, LivenessEpochs: 2})
	idle.Hold()
	var args Args
	deadline := time.Now().Add(10 * time.Second)
	for !idle.Abandoned() && time.Now().Before(deadline) {
		if err := beating.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !idle.Abandoned() {
		t.Fatal("idle enrolled client never declared dead")
	}
	if beating.Abandoned() {
		t.Fatal("beating client declared dead")
	}
	// heldCDs converges to 1: the beating client's hold survives, the
	// idle client's is reclaimed.
	waitCond(t, 2*time.Second, "idle client scavenge", func() bool {
		return sh.heldCDs.Load() == 1 && sys.Stats()[0].ScavengedCDs == 1
	})
	st := sys.Stats()[0]
	if st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("liveness counters: %+v", st)
	}
	beating.Release()
}

// TestCleanupBackstopReclaimsLeak: the GC death mode. A Client that
// leaks (no Release, no Abandon, reference dropped) is declared dead by
// the runtime.AddCleanup backstop and scavenged.
func TestCleanupBackstopReclaimsLeak(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	func() {
		c := sys.NewClientOnShard(0)
		c.Hold()
		// c leaks: the hold is never released and the reference dies here.
	}()
	waitCond(t, 10*time.Second, "cleanup-driven reclaim", func() bool {
		runtime.GC()
		return sh.heldCDs.Load() == 0 && sys.Stats()[0].ScavengedCDs == 1
	})
}

// TestCleanupCleanClientUnregisters: a leaked client that holds nothing
// is unregistered quietly — no death declared, no counter moved, no
// record left for the scavenger to walk.
func TestCleanupCleanClientUnregisters(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	reg := sys.shards[0].reg
	func() {
		_ = sys.NewClientOnShard(0)
	}()
	waitCond(t, 10*time.Second, "clean unregister", func() bool {
		runtime.GC()
		reg.mu.Lock()
		n := len(reg.recs)
		reg.mu.Unlock()
		return n == 0
	})
	if got := reg.abandoned.Load(); got != 0 {
		t.Fatalf("clean leak counted as abandoned: %d", got)
	}
}

// TestCleanupCollectsBatchClient: a client that made a Batch is
// collectable like any other. The record used to list the Batch, the
// Batch points at its Client, and the record is the cleanup's argument
// — the client was reachable from its own cleanup, which therefore
// never ran, and every System such a client touched stayed live for the
// rest of the process (async_batch's live heap, bench/README.md
// Findings 3). A flushed batch leaves nothing to reclaim and the record
// is dropped quietly; a staged payload makes the record non-clean, so
// the cleanup must also reap it: the lease returns to the arena.
func TestCleanupCollectsBatchClient(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	reg := sys.shards[0].reg
	recs := func() int {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		return len(reg.recs)
	}
	func() {
		c := sys.NewClientOnShard(0)
		b := c.NewBatch(svc.EP(), 4)
		b.Add(&Args{})
		if n, err := b.Flush(); n != 1 || err != nil {
			t.Fatalf("Flush: n = %d, err = %v", n, err)
		}
		// c and b leak here with nothing staged.
	}()
	waitCond(t, 10*time.Second, "cleanup of a client whose Batch was flushed", func() bool {
		runtime.GC()
		runtime.GC()
		return recs() == 0
	})
	if got := reg.abandoned.Load(); got != 0 {
		t.Fatalf("a flushed batch counted its client as abandoned: %d", got)
	}
	func() {
		c := sys.NewClientOnShard(0)
		b := c.NewBatch(svc.EP(), 4)
		ref, _, err := c.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		var args Args
		args.AttachPayload(ref)
		b.Add(&args)
		// c and b leak here, one lease staged.
	}()
	waitCond(t, 10*time.Second, "cleanup of a client with a staged Batch", func() bool {
		runtime.GC()
		runtime.GC()
		return recs() == 0
	})
	if st := sys.Stats()[0]; st.AbandonedClients != 1 || st.ScavengedLeases != 1 || st.LeasesActive != 0 {
		t.Fatalf("after the cleanup: AbandonedClients = %d, ScavengedLeases = %d, LeasesActive = %d; want 1, 1, 0",
			st.AbandonedClients, st.ScavengedLeases, st.LeasesActive)
	}
}

// TestHoldDeclinesOnDeadClient: Hold on an abandoned client must not
// take a descriptor out of the pool (a dead client acquiring resources
// is how holdings escape the scavenger).
func TestHoldDeclinesOnDeadClient(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	c := sys.NewClientOnShard(0)
	c.Abandon()
	c.Hold()
	if c.Held() || sh.heldCDs.Load() != 0 {
		t.Fatalf("dead client acquired a CD: held = %v, heldCDs = %d", c.Held(), sh.heldCDs.Load())
	}
}

// TestCallPooledOnDeadClient: the pooled call has no held descriptor to
// lose, so nothing but its own life check stops an abandoned client from
// being serviced. The handler must not run, and a lease the call had
// attached is released once — by the call if it claimed it, by the
// scavenger otherwise.
func TestCallPooledOnDeadClient(t *testing.T) {
	sys, svc, settled := leaseSystem(t, Options{})
	c := sys.NewClientOnShard(0)
	var plain, carrying Args
	carrying.AttachPayload(tagged(t, c, 1))
	c.Abandon()
	for _, args := range []*Args{&plain, &carrying} {
		if err := c.CallPooled(svc.EP(), args); !errors.Is(err, ErrClientAbandoned) {
			t.Fatalf("CallPooled on an abandoned client: %v", err)
		}
	}
	if svc.Calls() != 0 || settled.Load() != 0 {
		t.Fatalf("the handler ran for an abandoned client: Calls = %d, %d segments settled", svc.Calls(), settled.Load())
	}
	waitCond(t, 2*time.Second, "the attached lease to be released", func() bool { return leasesActive(sys) == 0 })
}
