package rt

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lease-slot protocol tests (owner.go, "Holdings change hands by
// exchange"): each side of the Dekker pair between a publishing owner and
// death, a claim on either side of the reap's drain, the spill chain, a
// batch whose claim fails part-way, and the storm. The deterministic
// tests play a death's two steps apart, by hand — declare marks the
// record, walk drains it; die does one right behind the other — so that
// each interleaving is the one the test names.

// leaseSystem builds a one-shard System whose service checks every
// payload view against the tag in word 0 and counts what it settles.
func leaseSystem(t *testing.T, o Options) (*System, *Service, *atomic.Int64) {
	t.Helper()
	o.Shards = 1
	sys := newSystem(t, o)
	settled := new(atomic.Int64)
	svc, err := sys.Bind(ServiceConfig{Name: "lease", Handler: func(ctx *Ctx, args *Args) {
		for i := 0; i < ctx.NumPayloads(); i++ {
			if v := ctx.Payload(i); len(v) == 0 || v[0] != byte(args[0]) {
				t.Errorf("segment %d of request %d: view %v", i, args[0], v)
			}
		}
		settled.Add(int64(ctx.NumPayloads()))
	}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, svc, settled
}

// declare plays the first step of a death: the life-state CAS and its
// count, without the reap die runs right behind it.
func declare(c *Client) {
	if c.rec.state.CompareAndSwap(crLive, crDead) {
		c.rec.reg.abandoned.Add(1)
	}
}

// walk plays the second step: the reap of c's record, alone.
func walk(c *Client) { c.rec.reap() }

// tagged leases a segment whose first byte is tag.
func tagged(t *testing.T, c *Client, tag byte) PayloadRef {
	t.Helper()
	ref, buf, err := c.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = tag
	return ref
}

func leasesActive(sys *System) int64 { return sys.Stats()[0].LeasesActive }

// TestLeasePublishThenDeath: the owner's publish comes first, so the
// reap's swap finds the ref and is the one to release it.
func TestLeasePublishThenDeath(t *testing.T) {
	needTwoPs(t)
	sys, svc, _ := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
	ref := tagged(t, c, 1)
	declare(c)
	walk(c)
	if st := sys.Stats()[0]; st.ScavengedLeases != 1 || st.LeasesActive != 0 {
		t.Fatalf("ScavengedLeases = %d, LeasesActive = %d; want 1, 0", st.ScavengedLeases, st.LeasesActive)
	}
	// The owner's late claim loses: the call fails and releases nothing.
	var args Args
	args.AttachPayload(ref)
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("Call with a scavenged lease: %v", err)
	}
	c.ReleasePayload(ref)
	if got := leasesActive(sys); got != 0 {
		t.Fatalf("LeasesActive = %d after the lost claims, want 0", got)
	}
}

// TestLeaseDeathThenPublish: death comes first, on both sides of the
// reap's walk. The owner's life check after its store sees it, and the
// owner takes its own ref back — nothing is left for a walk that has
// already been, and nothing is released twice by one still to come.
func TestLeaseDeathThenPublish(t *testing.T) {
	needTwoPs(t)
	sys, _, _ := leaseSystem(t, Options{})
	for _, reaped := range []bool{false, true} {
		c := sys.NewClientWith(ClientOptions{})
		declare(c)
		if reaped {
			walk(c)
		}
		if _, _, err := c.AllocPayload(64); !errors.Is(err, ErrClientAbandoned) {
			t.Fatalf("reaped=%v: AllocPayload on a dead client: %v", reaped, err)
		}
		var args Args
		if err := c.AttachBytes(&args, []byte("late")); !errors.Is(err, ErrClientAbandoned) || args.NumPayloads() != 0 {
			t.Fatalf("reaped=%v: AttachBytes on a dead client: %v, %d attached", reaped, err, args.NumPayloads())
		}
		if c.rec.holdsLeases() {
			t.Fatalf("reaped=%v: a dead client's publish stayed in its slot", reaped)
		}
		if !reaped {
			walk(c)
		}
	}
	if st := sys.Stats()[0]; st.ScavengedLeases != 0 || st.LeasesActive != 0 {
		t.Fatalf("ScavengedLeases = %d, LeasesActive = %d; want 0, 0 (the owner settled its own)", st.ScavengedLeases, st.LeasesActive)
	}
}

// TestLeaseClaimBeforeDrain: a submission that claimed before the drain
// owns its lease through the client's death — the reap finds an
// empty slot, the handler's view stays valid, and the call settles the
// lease itself.
func TestLeaseClaimBeforeDrain(t *testing.T) {
	needTwoPs(t)
	sys := newSystem(t, Options{Shards: 1})
	var c *Client
	svc, err := sys.Bind(ServiceConfig{Name: "mid", Handler: func(ctx *Ctx, args *Args) {
		// The client dies and is reaped while this call — which has
		// already claimed — is in flight. (The held descriptor is
		// condemned under it; TestAbandonMidCallTombstones' business.)
		declare(c)
		walk(c)
		if v := ctx.Payload(0); len(v) != 64 || v[0] != 9 {
			t.Errorf("view after the scavenge: %v", v)
		}
		if got := leasesActive(sys); got != 1 {
			t.Errorf("LeasesActive = %d mid-call, want the call's 1", got)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.NewClientWith(ClientOptions{})
	ref := tagged(t, c, 9)
	var args Args
	args.AttachPayload(ref)
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("the in-flight call: %v", err)
	}
	if st := sys.Stats()[0]; st.ScavengedLeases != 0 || st.LeasesActive != 0 {
		t.Fatalf("ScavengedLeases = %d, LeasesActive = %d; want 0, 0", st.ScavengedLeases, st.LeasesActive)
	}
}

// TestLeaseSpill: leases beyond the inline block go to appended blocks,
// are claimed from wherever they sit, and the blocks are kept — a second
// burst of the same size appends nothing.
func TestLeaseSpill(t *testing.T) {
	sys, _, _ := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
	blocks := func() (n int) {
		for b := &c.rec.leases; b != nil; b = b.next.Load() {
			n++
		}
		return n
	}
	const n = 3*recLeaseSlots + 2
	for round := 0; round < 2; round++ {
		refs := make([]PayloadRef, n)
		for i := range refs {
			refs[i] = tagged(t, c, byte(i))
		}
		if got, want := blocks(), 4; got != want {
			t.Fatalf("round %d: %d lease blocks for %d leases, want %d", round, got, n, want)
		}
		if got := leasesActive(sys); got != n {
			t.Fatalf("round %d: LeasesActive = %d, want %d", round, got, n)
		}
		for i := len(refs) - 1; i >= 0; i-- { // newest first: the far end of the chain
			c.ReleasePayload(refs[i])
		}
		if c.rec.holdsLeases() || leasesActive(sys) != 0 {
			t.Fatalf("round %d: after releasing every lease: slots occupied = %v, LeasesActive = %d",
				round, c.rec.holdsLeases(), leasesActive(sys))
		}
	}
	// The reap walks the whole chain.
	for i := 0; i < n; i++ {
		tagged(t, c, 0)
	}
	declare(c)
	walk(c)
	if st := sys.Stats()[0]; st.ScavengedLeases != n || st.LeasesActive != 0 {
		t.Fatalf("ScavengedLeases = %d, LeasesActive = %d; want %d, 0", st.ScavengedLeases, st.LeasesActive, n)
	}
}

// TestBatchClaimFailsPartWay: the reap is part-way through a dead
// client's slots when the client submits a batch. The claim that finds
// its slot already emptied fails the whole submission: the leases the
// batch did win are released by it, the rest by the reap, each once, and
// nothing reaches the service.
func TestBatchClaimFailsPartWay(t *testing.T) {
	needTwoPs(t)
	sys, svc, settled := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
	argss := make([]Args, 4)
	refs := make([]PayloadRef, len(argss))
	for i := range argss {
		refs[i] = tagged(t, c, byte(i))
		argss[i][0] = uint64(i)
		argss[i].AttachPayload(refs[i])
	}
	declare(c)
	// The reap's walk has reached exactly the third slot.
	if !c.rec.claimLease(refs[2]) {
		t.Fatal("setup: third lease not filed")
	}
	sys.shards[0].arena.release(refs[2])
	n, err := c.async(svc.EP(), argss, nil, 0)
	if n != 0 || !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("batch = %d, %v; want 0, ErrClientAbandoned", n, err)
	}
	if got := leasesActive(sys); got != 1 {
		t.Fatalf("LeasesActive = %d after the failed batch, want 1 (the fourth, still the reap's)", got)
	}
	walk(c)
	if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ScavengedLeases != 1 {
		t.Fatalf("LeasesActive = %d, ScavengedLeases = %d; want 0, 1", st.LeasesActive, st.ScavengedLeases)
	}
	if svc.AsyncCalls() != 0 || settled.Load() != 0 {
		t.Fatalf("the failed batch reached the service: AsyncCalls = %d, %d segments settled", svc.AsyncCalls(), settled.Load())
	}
}

// TestFlushOnDeadClientSettlesStagedLeases: Flush after death submits
// nothing, and the staged leases it can still claim are its own to
// release, like any other submission rejected before admission (the ones
// the reap reached first are the reap's:
// TestBatchClaimFailsPartWay). Nothing is left filed for a second
// release.
func TestFlushOnDeadClientSettlesStagedLeases(t *testing.T) {
	sys, svc, settled := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
	b := c.NewBatch(svc.EP(), 4)
	for i := 0; i < 3; i++ {
		var args Args
		args.AttachPayload(tagged(t, c, byte(i)))
		b.Add(&args)
	}
	declare(c)
	if n, err := b.Flush(); n != 0 || !errors.Is(err, ErrClientAbandoned) || b.Len() != 0 {
		t.Fatalf("Flush = %d, %v, %d still staged; want 0, ErrClientAbandoned, 0", n, err, b.Len())
	}
	if got := leasesActive(sys); got != 0 || c.rec.holdsLeases() {
		t.Fatalf("after the failed Flush: LeasesActive = %d, slots occupied = %v; want 0, false", got, c.rec.holdsLeases())
	}
	walk(c)
	if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ScavengedLeases != 0 || settled.Load() != 0 || svc.AsyncCalls() != 0 {
		t.Fatalf("LeasesActive = %d, ScavengedLeases = %d, settled = %d, AsyncCalls = %d; want all 0",
			st.LeasesActive, st.ScavengedLeases, settled.Load(), svc.AsyncCalls())
	}
}

// TestReleasePayloadFailsClosed: ReleasePayload releases only a lease it
// can still claim. Releasing twice, or releasing a ref a call has
// already consumed — from inside that call's handler, while its view is
// live — used to take the slab's lease count down a second time:
// LeasesActive went negative, and a sealed slab could recycle under the
// view.
func TestReleasePayloadFailsClosed(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	var c *Client
	var inFlight PayloadRef
	svc, err := sys.Bind(ServiceConfig{Name: "rel", Handler: func(ctx *Ctx, args *Args) {
		c.ReleasePayload(inFlight) // the call owns this lease now
		if got := leasesActive(sys); got != 2 {
			t.Errorf("LeasesActive = %d inside the handler, want 2 (this call's and the bystander's)", got)
		}
		if v := ctx.Payload(0); len(v) != 64 || v[0] != 0x77 {
			t.Errorf("view after ReleasePayload of the submitted ref: %v", v)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.NewClientWith(ClientOptions{})
	bystander := tagged(t, c, 1) // keeps the slab from rewinding: a double release would show
	ref := tagged(t, c, 2)
	c.ReleasePayload(ref)
	c.ReleasePayload(ref)
	if got := leasesActive(sys); got != 1 {
		t.Fatalf("LeasesActive = %d after a double ReleasePayload, want 1", got)
	}
	inFlight = tagged(t, c, 0x77)
	var args Args
	args.AttachPayload(inFlight)
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	c.ReleasePayload(inFlight) // and after the call settled it
	if got := leasesActive(sys); got != 1 {
		t.Fatalf("LeasesActive = %d after releasing a consumed ref, want 1", got)
	}
	c.ReleasePayload(bystander)
	if got := leasesActive(sys); got != 0 {
		t.Fatalf("LeasesActive = %d at the end, want 0", got)
	}
}

// TestCallContextRejectClaimsLeases: a call rejected before admission
// (context already done) consumes its attached leases like any other
// submission — out of the record first. It used to release them and
// leave the refs filed, for the reap to release a second time.
func TestCallContextRejectClaimsLeases(t *testing.T) {
	sys, svc, settled := leaseSystem(t, Options{})
	c := sys.NewClientWith(ClientOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var args Args
	args.AttachPayload(tagged(t, c, 1))
	if err := c.CallContext(ctx, svc.EP(), &args); !errors.Is(err, ErrDeadline) {
		t.Fatalf("CallContext on a cancelled context: %v", err)
	}
	if c.rec.holdsLeases() || leasesActive(sys) != 0 || settled.Load() != 0 {
		t.Fatalf("after the rejected call: slots occupied = %v, LeasesActive = %d, settled = %d",
			c.rec.holdsLeases(), leasesActive(sys), settled.Load())
	}
	bystander := tagged(t, c, 2)
	c.ReleasePayload(bystander)
	declare(c)
	walk(c)
	if st := sys.Stats()[0]; st.ScavengedLeases != 0 || st.LeasesActive != 0 {
		t.Fatalf("ScavengedLeases = %d, LeasesActive = %d; want 0, 0", st.ScavengedLeases, st.LeasesActive)
	}
}

// TestLeaseStorm races Abandon, from another goroutine and at an
// arbitrary point, against an owner running every operation that
// touches the lease slots: AllocPayload, AttachBytes, Call, CallPooled,
// ReleasePayload, Batch.Add, Flush, a two-request submission. Whatever the
// interleaving, every lease is released exactly once: the shard's lease
// gauge is never observed negative, converges to zero, and the leases
// the handlers and the reaps settled never exceed the leases issued.
// Each handler checks its views, so a slab that recycled under a live
// lease shows as a wrong byte.
func TestLeaseStorm(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	sys, svc, settled := leaseSystem(t, Options{WatchdogInterval: 100 * time.Microsecond})
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	var issued, negative atomic.Int64
	observe := func() {
		if leasesActive(sys) < 0 {
			negative.Add(1)
		}
	}
	for round := 0; round < rounds; round++ {
		c := sys.NewClientWith(ClientOptions{})
		var wg sync.WaitGroup
		wg.Add(2)
		// Death lands after the owner's (round mod 64)th operation has
		// begun, wherever inside it that turns out to be.
		var progress atomic.Int64
		go func() {
			defer wg.Done()
			for progress.Load() < int64(round%64) {
				runtime.Gosched()
			}
			c.Abandon()
			observe()
		}()
		go func() {
			defer wg.Done()
			b := c.NewBatch(svc.EP(), 8)
			lease := func(args *Args, tag byte) bool {
				args[0] = uint64(tag)
				if tag%2 == 0 {
					ref, buf, err := c.AllocPayload(64)
					if err != nil {
						return false
					}
					buf[0] = tag
					args.AttachPayload(ref)
				} else if err := c.AttachBytes(args, []byte{tag, 1, 2, 3}); err != nil {
					return false
				}
				issued.Add(1)
				return true
			}
			// One lease no operation below consumes: whenever death lands,
			// the reap has this one at least.
			if _, _, err := c.AllocPayload(64); err == nil {
				issued.Add(1)
			}
			for i := 0; i < 64; i++ {
				progress.Store(int64(i))
				var args Args
				tag := byte(i)
				if !lease(&args, tag) {
					progress.Store(64)
					return // dead: every later operation fails the same way
				}
				var err error
				switch (round + i) % 6 {
				case 0:
					err = c.Call(svc.EP(), &args)
				case 1:
					err = c.CallPooled(svc.EP(), &args)
				case 2:
					c.ReleasePayload(args.PayloadRefAt(0))
					c.ReleasePayload(args.PayloadRefAt(0))
				case 3:
					if lease(&args, tag) { // two segments on one request
						err = c.Call(svc.EP(), &args)
					}
				case 4:
					b.Add(&args)
					if b.Len() >= 5 {
						_, err = b.Flush()
					}
				case 5:
					argss := []Args{args, {}}
					argss[1][0] = uint64(tag)
					if lease(&argss[1], tag) {
						_, err = c.async(svc.EP(), argss, nil, 0)
					}
				}
				if err != nil && !errors.Is(err, ErrClientAbandoned) && !errors.Is(err, ErrBackpressure) {
					t.Errorf("round %d op %d: %v", round, i, err)
				}
			}
			_, _ = b.Flush()
			progress.Store(64)
		}()
		wg.Wait()
		c.Abandon()
	}
	waitCond(t, 10*time.Second, "every lease released", func() bool {
		observe()
		st := sys.Stats()[0]
		return st.LeasesActive == 0 && st.AbandonedClients == int64(rounds)
	})
	st := sys.Stats()[0]
	if n := negative.Load(); n != 0 {
		t.Fatalf("LeasesActive observed negative %d times: a lease was released twice", n)
	}
	if got := st.ScavengedLeases + settled.Load(); got > issued.Load() {
		t.Fatalf("scavenged %d + settled by handlers %d > issued %d", st.ScavengedLeases, settled.Load(), issued.Load())
	}
	if st.ScavengedLeases == 0 || settled.Load() == 0 {
		t.Fatalf("storm starved a leg: scavenged %d, settled %d of %d issued", st.ScavengedLeases, settled.Load(), issued.Load())
	}
	t.Logf("%d rounds: %d leases issued, %d settled by handlers, %d scavenged", rounds, issued.Load(), settled.Load(), st.ScavengedLeases)
}
