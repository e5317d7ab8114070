package rt

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Domain-death protocol unit tests: the two death modes (Abandon and
// the AddCleanup backstop) and the reap's per-holding
// reclamation, which has happened when the declaration returns. The
// storm version lives in chaos_test.go (TestChaosDomainDeath), the
// operation × death-point × declarer table in ownership_identity_test.go;
// these pin each mechanism in isolation.

// TestAbandonReclaimsHeldCD: the explicit death mode. Abandon is
// idempotent, condemns the held descriptor and compensates the pool with
// a fresh one before it returns, and every later call on the client fails
// with ErrClientAbandoned.
func TestAbandonReclaimsHeldCD(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
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
	st := sys.Stats()[0]
	if st.HeldCDs != 0 || st.PooledCDs != 1 || st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("right after Abandon: %+v", st)
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("call after abandon: %v", err)
	}
	// The pool was compensated with a fresh descriptor (the condemned
	// one is never repooled — a plain call could have been secretly in
	// flight on it), so a fresh client works and descriptor creation
	// counts exactly one compensation.
	c2 := sys.NewClientWith(ClientOptions{})
	if err := c2.Call(svc.EP(), &args); err != nil || sh.cdsCreated.Load() != 2 {
		t.Fatalf("compensation after scavenge: %v, cdsCreated = %d", err, sh.cdsCreated.Load())
	}
	c2.Release()
}

// TestAbandonMidCallTombstones: a call in flight when its client is
// abandoned — here from inside its own handler — completes normally on a
// descriptor the reap has condemned under it: the completion is never
// lost, the descriptor is never repooled, and the pool is compensated
// exactly once.
func TestAbandonMidCallTombstones(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	var c *Client
	svc, err := sys.Bind(ServiceConfig{Name: "t", Handler: func(ctx *Ctx, args *Args) {
		c.Abandon() // the cross-goroutine entry point, used in-goroutine
		args[0] = 77
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil || args[0] != 77 {
		t.Fatalf("in-flight call: %v, args[0] = %d (the completion must land)", err, args[0])
	}
	st := sys.Stats()[0]
	if st.TombstonedCompletions != 1 || st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("tombstone counters: %+v", st)
	}
	// The reap took the descriptor out of the slot while the call was on
	// it; the exit found the slot empty and walked away. What is in the
	// pool is the compensation.
	if sh.heldCDs.Load() != 0 || sh.poolSize() != 1 || sh.cdsCreated.Load() != 2 {
		t.Fatalf("after tombstone: heldCDs = %d, poolSize = %d, cdsCreated = %d; want 0, 1, 2",
			sh.heldCDs.Load(), sh.poolSize(), sh.cdsCreated.Load())
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
	sys := newSystem(t, Options{Shards: 1})
	c := sys.NewClientWith(ClientOptions{})
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
	st := sys.Stats()[0]
	if st.LeasesActive != 0 || st.ScavengedLeases != n {
		t.Fatalf("right after Abandon: LeasesActive = %d, ScavengedLeases = %d; want 0, %d", st.LeasesActive, st.ScavengedLeases, n)
	}
	if _, _, err := c.AllocPayload(128); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("AllocPayload after scavenge: %v", err)
	}
}

// TestAbandonReclaimsBatch: payload leases staged into an unflushed
// batch are settled by the reap, and Flush on the dead client fails with
// ErrClientAbandoned instead of submitting.
func TestAbandonReclaimsBatch(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
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
	if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ScavengedLeases != 3 {
		t.Fatalf("right after Abandon: LeasesActive = %d, ScavengedLeases = %d; want 0, 3", st.LeasesActive, st.ScavengedLeases)
	}
	if n, err := b.Flush(); n != 0 || !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("Flush after scavenge: n = %d, err = %v", n, err)
	}
}

// TestBatchAddAfterScavengeReleasesOnce: a payload leased before the
// client died and staged after the reap drained its record is released
// once, by the drain. Add's declined branch used to release it
// again, taking the slab's lease count to −1 — the domain-death storm
// saw it as LeasesActive never converging, about one run in 130.
func TestBatchAddAfterScavengeReleasesOnce(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	b := c.NewBatch(svc.EP(), 4)
	ref, _, err := c.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	if got := sys.Stats()[0].ScavengedLeases; got != 1 {
		t.Fatalf("ScavengedLeases = %d right after Abandon, want 1", got)
	}
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
// for the next client, and the reap finds nothing to condemn. Close
// retires it (leakCheck).
func TestAbandonLeavesExecutorPool(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "d", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats()[0]; st.HeldCDs != 0 || st.PooledCDs != 0 {
		t.Fatalf("HeldCDs = %d, PooledCDs = %d with one executor made, want 0 and 0: its descriptor is its own", st.HeldCDs, st.PooledCDs)
	}
	c.Abandon()
	if got := sys.Stats()[0].AbandonedClients; got != 1 {
		t.Fatalf("AbandonedClients = %d, want 1", got)
	}
	if err := sys.NewClientWith(ClientOptions{}).CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatalf("the next client's deadline call: %v", err)
	}
	if st := sys.Stats()[0]; st.ScavengedCDs != 0 || st.HeldCDs != 0 || st.CDsCreated != 1 || sh.deadlineExecs() != 1 || idleExecs(sh) != 1 {
		t.Fatalf("ScavengedCDs = %d, HeldCDs = %d, CDsCreated = %d, %d executors (%d idle); want 0, 0 and the one executor, reused",
			st.ScavengedCDs, st.HeldCDs, st.CDsCreated, sh.deadlineExecs(), idleExecs(sh))
	}
}

// TestCleanupBackstopReclaimsLeak: the GC death mode. A Client that
// leaks (no Release, no Abandon, reference dropped) is declared dead by
// the runtime.AddCleanup backstop and reaped on the cleanup goroutine.
func TestCleanupBackstopReclaimsLeak(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	func() {
		c := sys.NewClientWith(ClientOptions{})
		c.Hold()
		// c leaks: the hold is never released and the reference dies here.
	}()
	waitCond(t, 10*time.Second, "cleanup-driven reclaim", func() bool {
		runtime.GC()
		return sh.heldCDs.Load() == 0 && sys.Stats()[0].ScavengedCDs == 1
	})
}

// TestCleanupCleanClientUnregisters: a leaked client that holds nothing
// is dropped quietly — its record marked dead, no death counted, no
// counter moved. Nothing lists a record, so the mark is all there is to
// see: the test keeps the record, which does not reach the Client.
func TestCleanupCleanClientUnregisters(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	var rec *clientRec
	func() {
		rec = sys.NewClientWith(ClientOptions{}).rec
	}()
	waitCond(t, 10*time.Second, "the clean client's cleanup", func() bool {
		runtime.GC()
		return rec.state.Load() == crDead
	})
	if st := sys.Stats()[0]; st.AbandonedClients != 0 || st.ScavengedCDs != 0 || st.ScavengedLeases != 0 {
		t.Fatalf("clean leak counted: %+v", st)
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
// the cleanup must also reap it: the lease returns to the arena. Either
// way the record — which the test keeps; it does not reach the Client —
// ends up marked dead.
func TestCleanupCollectsBatchClient(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	var rec *clientRec
	func() {
		c := sys.NewClientWith(ClientOptions{})
		rec = c.rec
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
		return rec.state.Load() == crDead
	})
	if got := sys.Stats()[0].AbandonedClients; got != 0 {
		t.Fatalf("a flushed batch counted its client as abandoned: %d", got)
	}
	func() {
		c := sys.NewClientWith(ClientOptions{})
		rec = c.rec
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
		return rec.state.Load() == crDead
	})
	if st := sys.Stats()[0]; st.AbandonedClients != 1 || st.ScavengedLeases != 1 || st.LeasesActive != 0 {
		t.Fatalf("after the cleanup: AbandonedClients = %d, ScavengedLeases = %d, LeasesActive = %d; want 1, 1, 0",
			st.AbandonedClients, st.ScavengedLeases, st.LeasesActive)
	}
}

// TestHoldDeclinesOnDeadClient: Hold on an abandoned client must not
// take a descriptor out of the pool (a dead client acquiring resources
// is how holdings escape the reap, which has already been).
func TestHoldDeclinesOnDeadClient(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	c := sys.NewClientWith(ClientOptions{})
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
// reap otherwise.
func TestCallPooledOnDeadClient(t *testing.T) {
	sys, svc, settled := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
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
	if got := leasesActive(sys); got != 0 {
		t.Fatalf("LeasesActive = %d, want 0: the attached lease was the reap's", got)
	}
}

// TestAbandonAfterCloseReclaims: the reclaim depends on no helper that may
// be gone. Abandon on a closed System — no tick is running and none is
// started — has settled the held descriptor and the lease when it returns.
// A reap left to the tick would never come: a closed shard starts none.
func TestAbandonAfterCloseReclaims(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil { // the implicit hold
		t.Fatal(err)
	}
	if _, _, err := c.AllocPayload(64); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	before := sys.Stats()[0]
	c.Abandon()
	st := sys.Stats()[0]
	if st.HeldCDs != 0 || st.LeasesActive != 0 || st.ScavengedCDs != 1 || st.ScavengedLeases != 1 || st.AbandonedClients != 1 {
		t.Fatalf("right after Close(); Abandon(): HeldCDs = %d, LeasesActive = %d, ScavengedCDs = %d, ScavengedLeases = %d, AbandonedClients = %d; want 0, 0, 1, 1, 1",
			st.HeldCDs, st.LeasesActive, st.ScavengedCDs, st.ScavengedLeases, st.AbandonedClients)
	}
	if st.PooledCDs != before.PooledCDs+1 || st.CDsCreated != before.CDsCreated+1 {
		t.Fatalf("pool not compensated once: PooledCDs %d -> %d, CDsCreated %d -> %d", before.PooledCDs, st.PooledCDs, before.CDsCreated, st.CDsCreated)
	}
	sh.qMu.Lock()
	on := sh.watchdogOn
	sh.qMu.Unlock()
	if on {
		t.Fatal("Abandon on a closed shard started a tick loop")
	}
}

// BenchmarkClientLifecycle prices what a client costs to make and to lose
// (EXPERIMENTS.md E27): construction alone — no lock and no list entry —
// and a whole short life, create + Call + Abandon, with the reclaim of the
// held descriptor inside the figure (Abandon performs it).
func BenchmarkClientLifecycle(b *testing.B) {
	sys := newSystem(b, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("create", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = sys.NewClientWith(ClientOptions{})
		}
	})
	b.Run("create+Call+Abandon", func(b *testing.B) {
		b.ReportAllocs()
		var args Args
		for i := 0; i < b.N; i++ {
			c := sys.NewClientWith(ClientOptions{})
			if err := c.Call(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
			c.Abandon()
		}
	})
}
