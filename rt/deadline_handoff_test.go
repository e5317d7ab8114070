package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the park-first deadline handoff: the caller blocks on the
// ticket's done token, the executor on its wake token, and every party
// that moves the state word out of waiting sends one token. What can go
// wrong with tokens — one arriving for the wrong generation, one never
// arriving, a goroutine left blocked on a channel nobody will send on —
// is what these drive. CI runs them at -cpu 1,2,4 and under -race.

// Expiry racing completion: the handler takes about as long as the
// deadline, so the tick's orphaning CAS and the executor's done CAS
// contend for the same state word call after call. Every call must
// resolve one of exactly two ways: nil with THIS call's result, or
// ErrDeadline with the caller's args untouched.
func TestDeadlineExpiryRacesCompletion(t *testing.T) {
	leakCheck(t)
	const tick = 50 * time.Microsecond
	calls := 10_000
	if testing.Short() {
		calls = 1_000
	}
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: tick})
	defer sys.Close()
	defer nonNegativeQuarantine(t, &sys.shards[0])()
	svc, err := sys.Bind(ServiceConfig{Name: "edge", Handler: func(ctx *Ctx, args *Args) {
		// 0..3 ticks around an expiry that lands 1..2 ticks after arming.
		time.Sleep(time.Duration(args[0]%4) * tick)
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	completed, expired := 0, 0
	for n := uint64(0); n < uint64(calls); n++ {
		var args Args
		args[0] = n
		err := c.CallDeadline(svc.EP(), &args, tick)
		switch {
		case err == nil:
			completed++
			if args[0] != n+1 {
				t.Fatalf("call %d completed with args[0] = %d, want its own result %d", n, args[0], n+1)
			}
		case errors.Is(err, ErrDeadline):
			expired++
			if args[0] != n {
				t.Fatalf("call %d expired but args[0] = %d: the orphan wrote through", n, args[0])
			}
		default:
			t.Fatalf("call %d: %v", n, err)
		}
	}
	t.Logf("%d completed, %d expired", completed, expired)
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	if got := sys.Stats()[0].DeadlineExpirations; got != int64(expired) {
		t.Fatalf("DeadlineExpirations = %d, callers saw %d", got, expired)
	}
}

// A done token that does not belong to the current call must not end
// its wait, whoever's call left it. Three sources: a CallContext whose
// cancellation fires just as the executor wins the state CAS (the handler
// cancels its own caller's ctx on the way out — the caller sees Done in
// the word and leaves the executor's token behind), a cancellation that
// loses its orphan CAS to the tick (the tick's token arrives after the
// caller has gone), and — white box, the same state made on purpose — a
// token planted on the idle executor's ticket. Either way the executor
// goes back to the pool carrying it, and the long call ANOTHER client
// makes on that executor at once must not return before its own handler
// has, with its own result and none of the previous call's args or error.
func TestCallContextStaleDoneToken(t *testing.T) {
	leakCheck(t)
	rounds := 2_000
	if testing.Short() {
		rounds = 200
	}
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 50 * time.Microsecond})
	defer sys.Close()
	sh := &sys.shards[0]
	defer nonNegativeQuarantine(t, sh)()
	const poison = 0xdead
	var cancel atomic.Pointer[context.CancelFunc]
	racy, err := sys.Bind(ServiceConfig{Name: "selfcancel", Handler: func(ctx *Ctx, args *Args) {
		args[0]++
		args[1] = poison
		(*cancel.Load())()
		if args[2] != 0 {
			panic("the previous call's error") // a FaultError on the ticket, should the next call read it
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	var returned atomic.Uint64
	long, err := sys.Bind(ServiceConfig{Name: "long", Handler: func(ctx *Ctx, args *Args) {
		time.Sleep(100 * time.Microsecond)
		returned.Store(args[0])
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, next := sys.NewClientOnShard(0), sys.NewClientOnShard(0)
	defer c.Release()
	defer next.Release()
	won, lost := 0, 0
	for n := uint64(1); n <= uint64(rounds); n++ {
		ctx, cf := context.WithCancel(context.Background())
		cancel.Store(&cf)
		var args Args
		args[0] = n
		if n%3 == 1 {
			args[2] = 1 // every third round the handler panics too
		}
		switch err := c.CallContext(ctx, racy.EP(), &args); {
		case errors.Is(err, context.Canceled):
			lost++
		case args[2] != 0:
			if !errors.Is(err, ErrServerFault) {
				t.Fatalf("round %d: %v, want the handler's fault", n, err)
			}
			won++
		case err == nil:
			won++
			if args[0] != n+1 {
				t.Fatalf("round %d: result %d, want %d", n, args[0], n+1)
			}
		default:
			t.Fatalf("round %d: %v", n, err)
		}
		waitCond(t, 5*time.Second, "the executor to be back in the pool", func() bool { return idleExecs(sh) == sh.deadlineExecs() })
		if n%2 == 0 {
			// Plant a token on every ticket the long call may be about to reuse.
			for _, e := range sh.execs() {
				sendToken(e.ticket.done)
			}
		}
		args = Args{n}
		if err := next.CallDeadline(long.EP(), &args, time.Hour); err != nil {
			t.Fatalf("round %d: the next client's call: %v", n, err)
		}
		if returned.Load() != n || args[0] != n+1 || args[1] != 0 {
			t.Fatalf("round %d: the next client's call returned before its handler did, or with another call's results (handler at %d, result %v)",
				n, returned.Load(), args[:2])
		}
	}
	t.Logf("%d completed, %d cancelled", won, lost)
	if n := sh.deadlineExecs(); n != 1 {
		t.Errorf("%d executors for two clients calling in turn, want the one both reused", n)
	}
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
}

// Whoever hands an executor back must have read its results out first:
// two clients on one shard call in turn through the one executor,
// thousands of rounds, each with a result word of its own, and neither
// ever sees the other's — under -race, neither's copy-out races the
// other's copy-in.
func TestDeadlinePoolPingPong(t *testing.T) {
	leakCheck(t)
	needTwoPs(t)
	rounds := 5_000
	if testing.Short() {
		rounds = 500
	}
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "pingpong", Handler: func(ctx *Ctx, args *Args) {
		args[1] = args[0] ^ 0x5a5a
	}})
	if err != nil {
		t.Fatal(err)
	}
	turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			c := sys.NewClientOnShard(0)
			defer c.Release()
			for i := 0; i < rounds; i++ {
				<-turn[g]
				args := Args{uint64(g)<<32 | uint64(i)}
				err := c.CallDeadline(svc.EP(), &args, time.Hour)
				turn[1-g] <- struct{}{} // the other client may already be taking the executor
				if err != nil || args[0] != uint64(g)<<32|uint64(i) || args[1] != args[0]^0x5a5a {
					done <- fmt.Errorf("client %d round %d: err %v, args %#x %#x", g, i, err, args[0], args[1])
					return
				}
			}
			done <- nil
		}(g)
	}
	turn[0] <- struct{}{}
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n, st := sh.deadlineExecs(), sys.Stats()[0]; n != 1 || st.CDsCreated != 1 {
		t.Fatalf("%d executors, %d descriptors for two clients calling in turn; want one of each", n, st.CDsCreated)
	}
}

// executors counts live deadline-executor goroutines by creation site.
func executors() int {
	n := 0
	for site, k := range goroutineSites() {
		if strings.Contains(site, "newExec") {
			n += k
		}
	}
	return n
}

// Executor goroutines follow the shard's concurrency, not its clients,
// whichever way a client goes: Release, an orphan's return, Abandon and
// its reap, Abandon racing Release all leave the pool alone, and
// System.Close ends it. leakCheck covers everything else the system
// started once it is closed.
func TestDeadlineExecutorGoroutineAccounting(t *testing.T) {
	// Earlier tests' executors exit asynchronously after their Close.
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	leakCheck(t)
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: 100 * time.Microsecond,
	})
	defer sys.Close()
	sh := &sys.shards[0]
	fast, err := sys.Bind(ServiceConfig{Name: "fast", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	slow, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) { <-block }})
	if err != nil {
		t.Fatal(err)
	}
	settled := func(what string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for executors() != want || sh.deadlineExecs() != want || idleExecs(sh) != want ||
			sh.quarantinedCDs.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %d executor goroutines, %d on the shard's list, %d idle, want %d of each; %d quarantined",
					what, executors(), sh.deadlineExecs(), idleExecs(sh), want, sh.quarantinedCDs.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var args Args

	c := sys.NewClientOnShard(0)
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Release()
	settled("one parked executor after Release", 1)

	c = sys.NewClientOnShard(0)
	if err := c.CallDeadline(slow.EP(), &args, 200*time.Microsecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatalf("call behind the orphan: %v", err)
	}
	close(block)
	settled("the orphan's executor and the one made behind it, both parked", 2)
	c.Release()

	c = sys.NewClientOnShard(0)
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	settled("the pool untouched by Abandon and its reap", 2)

	for i := 0; i < 200; i++ {
		c := sys.NewClientOnShard(0)
		if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
			t.Fatal(err)
		}
		go c.Abandon()
		c.Release()
	}
	settled("the pool untouched by Abandon racing Release", 2)
	if st := sys.Stats()[0]; st.HeldCDs != 0 || st.CDsCreated != 2 {
		t.Fatalf("HeldCDs = %d, CDsCreated = %d after 203 clients went away; want 0 and the two executors' own", st.HeldCDs, st.CDsCreated)
	}
	sys.Close()
	settled("Close to retire the pool", 0)
}

// sample calls bad from a goroutine of its own, over and over, until the
// returned stop is called, and fails the test with the first complaint.
func sample(t *testing.T, bad func() string) (stop func()) {
	t.Helper()
	done, joined := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(joined)
		for {
			if msg := bad(); msg != "" {
				t.Error(msg)
				return
			}
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	return func() { close(done); <-joined }
}

// nonNegativeQuarantine samples the shard's quarantine gauge, which must
// never read negative: the orphaning side raises it before its CAS, so
// the executor's decrement cannot come first.
func nonNegativeQuarantine(t *testing.T, sh *shard) (stop func()) {
	t.Helper()
	return sample(t, func() string {
		if v := sh.quarantinedCDs.Load(); v < 0 {
			return fmt.Sprintf("QuarantinedCDs read %d", v)
		}
		return ""
	})
}

// An orphaning costs the client nothing it holds: a client that mixes
// Call and CallDeadline still holds the same descriptor afterwards, the
// orphan runs on the executor's own, and the next plain Call pops nothing.
func TestOrphanLeavesClientHold(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 100 * time.Microsecond})
	defer sys.Close()
	sh := &sys.shards[0]
	defer nonNegativeQuarantine(t, sh)()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "mixed", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
		args[1]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	held := c.held
	orphan := Args{1}
	if err := c.CallDeadline(svc.EP(), &orphan, 300*time.Microsecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	<-entered
	st := sys.Stats()[0]
	if !c.Held() || c.held != held || c.rec.cd.Load() != held || st.HeldCDs != 1 {
		t.Fatalf("after the orphaning: Held() = %v, same descriptor %v, still in the record's slot %v, HeldCDs = %d; want the hold untouched",
			c.Held(), c.held == held, c.rec.cd.Load() == held, st.HeldCDs)
	}
	if st.QuarantinedCDs != 1 {
		t.Fatalf("QuarantinedCDs = %d while the orphan runs, want 1", st.QuarantinedCDs)
	}
	args = Args{}
	if err := c.Call(svc.EP(), &args); err != nil || args[1] != 1 {
		t.Fatalf("plain Call after the orphaning: %v, result %d", err, args[1])
	}
	if after := sys.Stats()[0]; after.CDsCreated != st.CDsCreated || after.PooledCDs != st.PooledCDs {
		t.Fatalf("the plain Call moved the pool: CDsCreated %d → %d, PooledCDs %d → %d",
			st.CDsCreated, after.CDsCreated, st.PooledCDs, after.PooledCDs)
	}
	close(block)
	waitCond(t, 5*time.Second, "the orphan's executor to go back to the pool", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0 && idleExecs(sh) == 1
	})
	if orphan[1] != 0 {
		t.Fatalf("the orphan wrote through to the caller's args: %v", orphan[:2])
	}
}

// No deadline call moves the client's hold: across met, expired and
// cancelled calls the record's slot and Client.held read the one
// descriptor Hold filed, whoever looks and whenever.
func TestDeadlineCallsNeverMoveTheHold(t *testing.T) {
	leakCheck(t)
	needTwoPs(t)
	rounds := 3_000
	if testing.Short() {
		rounds = 300
	}
	const tick = 50 * time.Microsecond
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: tick})
	defer sys.Close()
	sh := &sys.shards[0]
	defer nonNegativeQuarantine(t, sh)()
	svc, err := sys.Bind(ServiceConfig{Name: "storm", Handler: func(ctx *Ctx, args *Args) {
		time.Sleep(time.Duration(args[0]) * tick)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	c.Hold()
	cd, rec := c.held, c.rec
	if rec.cd.Load() != cd {
		t.Fatalf("Hold left %p in the record's slot, holding %p", rec.cd.Load(), cd)
	}
	stop := sample(t, func() string {
		if got := rec.cd.Load(); got != cd {
			return fmt.Sprintf("the record's slot read %p mid-storm, want %p throughout", got, cd)
		}
		return ""
	})
	met, expired, cancelled := 0, 0, 0
	for i := 0; i < rounds; i++ {
		var err error
		switch i % 3 {
		case 0: // met
			err = c.CallDeadline(svc.EP(), &Args{}, time.Hour)
		case 1: // expires: the handler outlives the bound
			err = c.CallDeadline(svc.EP(), &Args{4}, tick)
		default: // cancelled mid-handler
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(tick, cancel)
			err = c.CallContext(ctx, svc.EP(), &Args{4})
			cancel()
		}
		switch {
		case err == nil:
			met++
		case errors.Is(err, context.Canceled):
			cancelled++
		case errors.Is(err, ErrDeadline):
			expired++
		default:
			t.Fatalf("call %d: %v", i, err)
		}
		if c.held != cd || rec.cd.Load() != cd {
			t.Fatalf("call %d: the client's hold moved (Client.held %p, the record's slot %p, want %p in both)", i, c.held, rec.cd.Load(), cd)
		}
	}
	stop()
	t.Logf("%d met, %d expired, %d cancelled", met, expired, cancelled)
	if expired == 0 || cancelled == 0 || met == 0 {
		t.Fatalf("the storm missed a leg: %d met, %d expired, %d cancelled", met, expired, cancelled)
	}
	waitCond(t, 5*time.Second, "quarantine drained", func() bool { return sys.Stats()[0].QuarantinedCDs == 0 })
	if st := sys.Stats()[0]; st.HeldCDs != 1 {
		t.Fatalf("HeldCDs = %d after the storm, want the one hold", st.HeldCDs)
	}
}

// Abandon from another goroutine races the deadline entry — the life
// check, the claim of an executor, the handoff — round after round. The
// scavenger reaps the dead client at once, call in flight or not: the
// caller always returns, with its result, ErrDeadline or
// ErrClientAbandoned; the executor always goes back to the pool; and
// nothing is left in flight, leased or quarantined.
func TestAbandonRacesDeadlineEntry(t *testing.T) {
	leakCheck(t)
	needTwoPs(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	rounds := 4_000
	if testing.Short() {
		rounds = 400
	}
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 50 * time.Microsecond})
	defer sys.Close()
	sh := &sys.shards[0]
	defer nonNegativeQuarantine(t, sh)()
	svc, err := sys.Bind(ServiceConfig{Name: "raced", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			time.Sleep(200 * time.Microsecond)
		}
		args[1] = 7
	}})
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]int{}
	for i := 0; i < rounds; i++ {
		c := sys.NewClientOnShard(0)
		if i%2 == 0 {
			// Half the rounds race a client that has made a deadline call
			// before; the other half race its first.
			if err := c.CallDeadline(svc.EP(), &Args{}, time.Second); err != nil {
				t.Fatalf("round %d: first call: %v", i, err)
			}
		}
		var args Args
		args[0] = uint64(i / 2 % 2) // every other pair: a handler that outlives the bound
		if i%3 == 0 {
			ref, _, err := c.AllocPayload(64)
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			args.AttachPayload(ref)
		}
		start, errc := make(chan struct{}), make(chan error, 1)
		go func() {
			<-start
			errc <- c.CallDeadline(svc.EP(), &args, 100*time.Microsecond)
		}()
		go func() {
			<-start
			for spin := i % 16; spin > 0; spin-- {
				runtime.Gosched() // sweep the Abandon across the entry
			}
			c.Abandon()
		}()
		close(start)
		select {
		case err := <-errc:
			switch {
			case err == nil:
				results["result"]++
				if args[1] != 7 {
					t.Fatalf("round %d: completed without its result", i)
				}
			case errors.Is(err, ErrDeadline):
				results["ErrDeadline"]++
			case errors.Is(err, ErrClientAbandoned):
				results["ErrClientAbandoned"]++
			default:
				t.Fatalf("round %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the caller never returned", i)
		}
	}
	t.Logf("%v", results)
	converged := func() bool {
		st := sys.Stats()[0]
		return idleExecs(sh) == sh.deadlineExecs() && executors() == sh.deadlineExecs() &&
			st.QuarantinedCDs == 0 && st.LeasesActive == 0 && svc.inFlightTotal() == 0
	}
	for end := time.Now().Add(10 * time.Second); !converged(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(end) {
			st := sys.Stats()[0]
			t.Fatalf("no convergence: %d executor goroutines, %d on the shard's list, %d idle, QuarantinedCDs %d, LeasesActive %d, %d in flight",
				executors(), sh.deadlineExecs(), idleExecs(sh), st.QuarantinedCDs, st.LeasesActive, svc.inFlightTotal())
		}
	}
	// One caller at a time with an orphan or two behind it: the pool is a
	// handful, whatever the client count. Deadline-only clients: nothing
	// was held, so nothing was condemned, and every descriptor ever made
	// is an executor's or in the pool — once.
	execs := sh.deadlineExecs()
	if execs == 0 || execs > 16 {
		t.Fatalf("%d executors after %d clients, one calling at a time; want a handful", execs, rounds)
	}
	if st := sys.Stats()[0]; st.HeldCDs != 0 || st.ScavengedCDs != 0 || int64(st.PooledCDs+execs) != st.CDsCreated {
		t.Fatalf("HeldCDs = %d, ScavengedCDs = %d, PooledCDs = %d + %d executors of %d created; want 0, 0 and all of them",
			st.HeldCDs, st.ScavengedCDs, st.PooledCDs, execs, st.CDsCreated)
	}
}

// A deadline-only client never holds a descriptor — the executor's is the
// executor's, taken from the pool when it was made — and the client's
// Close changes nothing: the executor stays, parked, for the next client.
func TestDeadlineOnlyClientHoldsNoDescriptor(t *testing.T) {
	leakCheck(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "only", Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
	if err != nil {
		t.Fatal(err)
	}
	warm := sys.NewClientOnShard(0)
	if err := warm.Call(svc.EP(), &Args{}); err != nil {
		t.Fatal(err)
	}
	warm.Release()
	start := sys.Stats()[0]
	c := sys.NewClientOnShard(0)
	var args Args
	for i := 0; i < 100; i++ {
		if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
			t.Fatal(err)
		}
		if st := sys.Stats()[0]; c.Held() || st.HeldCDs != 0 {
			t.Fatalf("call %d: Held() = %v, HeldCDs = %d; a deadline-only client holds nothing", i, c.Held(), st.HeldCDs)
		}
	}
	if args[0] != 100 {
		t.Fatalf("results: %d", args[0])
	}
	if st := sys.Stats()[0]; st.PooledCDs != start.PooledCDs-1 || st.CDsCreated != start.CDsCreated {
		t.Fatalf("PooledCDs %d → %d, CDsCreated %d → %d; want the executor's one pop from the pool",
			start.PooledCDs, st.PooledCDs, start.CDsCreated, st.CDsCreated)
	}
	c.Close()
	sh := &sys.shards[0]
	if st := sys.Stats()[0]; st.HeldCDs != 0 || st.QuarantinedCDs != 0 || st.PooledCDs != start.PooledCDs-1 ||
		sh.deadlineExecs() != 1 || idleExecs(sh) != 1 || executors() != 1 {
		t.Fatalf("after the client's Close: HeldCDs = %d, QuarantinedCDs = %d, PooledCDs %d → %d, %d executors (%d idle, %d goroutines); want 0, 0, one fewer, and the one parked",
			st.HeldCDs, st.QuarantinedCDs, start.PooledCDs, st.PooledCDs, sh.deadlineExecs(), idleExecs(sh), executors())
	}
}

// TestReleaseAfterDeadlineCallIsNotDoubleRelease: Release (or Close)
// leaves the client usable, so Call; Release; CallDeadline; Release is a
// legal sequence — the second Release follows a call, it is not a second
// Release of the first hold. The deadline call takes no hold, so nothing
// but its own note on the client tells the two apart.
func TestReleaseAfterDeadlineCallIsNotDoubleRelease(t *testing.T) {
	leakCheck(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "rel", Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	for round, deadlineCall := range []func() error{
		func() error { return c.CallDeadline(svc.EP(), &args, time.Second) },
		func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return c.CallContext(ctx, svc.EP(), &args)
		},
		func() error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			return c.CallContext(ctx, svc.EP(), &args)
		},
	} {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		c.Release()
		if err := deadlineCall(); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			c.Release()
		} else {
			c.Close()
		}
		if st := sys.Stats()[0]; st.HeldCDs != 0 || st.QuarantinedCDs != 0 || sys.shards[0].deadlineExecs() != 1 {
			t.Fatalf("round %d: HeldCDs = %d, QuarantinedCDs = %d, %d executors; want 0, 0 and the one every round reuses",
				round, st.HeldCDs, st.QuarantinedCDs, sys.shards[0].deadlineExecs())
		}
	}
	// A second Release of one hold is still loud.
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of the same hold must still panic")
		}
	}()
	c.Release()
}
