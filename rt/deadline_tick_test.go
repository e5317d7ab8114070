package rt

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// Regression and race coverage for deadline expiry on the shard tick:
// the two cancellation-path bugfixes (dead-on-arrival ctx, health-gate
// pollution), the timing contract through the public API, and the
// interleavings of the tick with the callers (orphan vs tick vs
// Release, Close with executors idle and in flight, ticket reuse across
// re-arm).

// A ctx that is already cancelled (no deadline involved) must fail
// before admission: no handler run, no descriptor held, no executor
// taken, no expiry counted.
func TestCallContextDeadCtxNeverAdmits(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "deadctx", Handler: func(ctx *Ctx, args *Args) {
		t.Error("handler must not run for an already-cancelled context")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: -1})
	defer c.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
	if svc.Calls() != 0 {
		t.Fatalf("Calls = %d, want 0", svc.Calls())
	}
	if n := sys.shards[0].deadlineExecs(); n != 0 {
		t.Fatalf("dead-on-arrival ctx took an executor: %d registered", n)
	}
	st := sys.Stats()[0]
	if st.HeldCDs != 0 || st.QuarantinedCDs != 0 || st.DeadlineExpirations != 0 {
		t.Fatalf("dead-on-arrival ctx left side effects: %+v", st)
	}
}

// Caller cancellation is not evidence that the service is sick: any
// number of prompt ctx cancellations must leave the health gate alone,
// while true expiries still trip it, and a cancelled half-open probe
// leaves the gate to the probe's lease (no recovery, no wedge) so a
// later clean probe can close it.
func TestCallContextCancelNoHealthEvidence(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 16)
	svc, err := sys.Bind(ServiceConfig{
		Name: "cancelgate",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				entered <- struct{}{}
				<-block
			}
		},
		Health: &HealthConfig{MaxConsecutiveTimeouts: 2, ProbeAfter: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	c := sys.NewClientWith(ClientOptions{})
	var bad Args
	bad[0] = 1
	// Twice the trip threshold in prompt cancellations: no gate movement.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-entered
			cancel()
		}()
		a := bad
		if err := c.CallContext(ctx, svc.EP(), &a); !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation %d: %v", i, err)
		}
	}
	if svc.HealthTrips() != 0 || !svc.Healthy() {
		t.Fatalf("cancellations polluted the gate: trips=%d healthy=%v", svc.HealthTrips(), svc.Healthy())
	}
	// True expiries still count: two trip it.
	for i := 0; i < 2; i++ {
		a := bad
		if err := c.CallDeadline(svc.EP(), &a, time.Millisecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("expiry %d: %v", i, err)
		}
	}
	var good Args
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("after timeout run: %v, want shed", err)
	}
	if svc.HealthTrips() != 1 {
		t.Fatalf("HealthTrips = %d", svc.HealthTrips())
	}
	// A cancelled half-open probe: no recovery, and the gate sheds until
	// the probe's lease expires.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	a := bad
	if err := c.CallContext(ctx, svc.EP(), &a); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if svc.Healthy() || svc.HealthRecovers() != 0 {
		t.Fatal("cancelled probe must not close the gate")
	}
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("inside the probe's lease: %v, want shed", err)
	}
	// After the lease a clean probe takes over and recovers.
	time.Sleep(10 * time.Millisecond)
	waitCond(t, time.Second, "clean probe recovery", func() bool {
		return c.Call(svc.EP(), &good) == nil
	})
	if !svc.Healthy() {
		t.Fatal("gate never closed after the cancelled probe's lease")
	}
}

// The timing contract, through the public API only: a call that outlives
// its deadline d returns ErrDeadline never before d has elapsed and at
// most ~2 ticks after, for any d — a fraction of a tick, 200 ticks (the
// deleted timer wheel cascaded past 64), and a short deadline armed on a
// client whose previous call armed an hour. Default Options: the tick is
// 1 ms and the loop tightens to it from the 5 ms supervision interval
// when the first executor is made. The companions: TestDeadlineTicketReuseAcrossRearm
// (a completed call's deadline never orphans the next call) and
// TestWarmCallDeadlineAllocs (the warm path stays off the heap).
func TestDeadlineTimingContract(t *testing.T) {
	leakCheck(t)
	const (
		tick   = time.Millisecond
		rounds = 3
		// slack is what the wakeup of the caller may add on a busy host;
		// the best of a row's rounds must do far better.
		slack     = 100 * time.Millisecond
		bestSlack = 3 * time.Millisecond
	)
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	release := make(chan struct{})
	svc, err := sys.Bind(ServiceConfig{Name: "contract", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			<-release // outlive the deadline
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	for _, row := range []struct {
		name  string
		prior time.Duration // a completed call's deadline, armed just before (0: none)
		d     time.Duration
	}{
		{"half a tick", 0, tick / 2},
		{"one tick", 0, tick},
		{"three ticks", 0, 3 * tick},
		{"200 ticks", 0, 200 * tick},
		{"2 ms after a 1 h arm", time.Hour, 2 * time.Millisecond},
	} {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < rounds; r++ {
			var args Args
			if row.prior != 0 {
				if err := c.CallDeadline(svc.EP(), &args, row.prior); err != nil {
					t.Fatalf("%s: prior call: %v", row.name, err)
				}
			}
			args[0] = 1
			start := time.Now()
			err := c.CallDeadline(svc.EP(), &args, row.d)
			late := time.Since(start) - row.d
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("%s: err = %v, want ErrDeadline", row.name, err)
			}
			release <- struct{}{}
			if late < 0 {
				t.Errorf("%s: settled %v before d = %v had elapsed", row.name, -late, row.d)
			}
			if late > 2*tick+slack {
				t.Errorf("%s: settled %v after d = %v, want at most 2 ticks (+%v)", row.name, late, row.d, slack)
			}
			best = min(best, late)
		}
		if best > 2*tick+bestSlack {
			t.Errorf("%s: best of %d rounds settled %v after d, want at most 2 ticks (+%v)", row.name, rounds, best, bestSlack)
		}
	}
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
}

// A shard's first deadline executor made while its tick loop is already
// running on the supervision interval (any earlier AsyncCall started it)
// must make the loop re-pick its period at once: before startTick's
// token the loop noticed the registration only after its next tick, and
// the first CallDeadline settled a whole WatchdogInterval late.
func TestFirstDeadlineAfterRunningTickIsOnTime(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 300 * time.Millisecond})
	defer sys.Close()
	block := make(chan struct{})
	defer close(block)
	svc, err := sys.Bind(ServiceConfig{Name: "first", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	done := make(chan struct{}, 1)
	if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
		t.Fatal(err)
	}
	<-done // the first worker started the loop, 300 ms to its next tick
	args[0] = 1
	start := time.Now()
	err = c.CallDeadline(svc.EP(), &args, 2*time.Millisecond)
	took := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if took > 50*time.Millisecond {
		t.Fatalf("first CallDeadline(2ms) behind a running 300 ms tick settled after %v, want ≤ 50 ms", took)
	}
}

// Orphaning, the shard tick, and Release race freely: concurrent
// throwaway clients alternate completing calls and orphaning them, so
// executors go back to the pool from both sides (the caller's, the
// executor's own) under the tick that walks them. Run with -race;
// afterwards every quarantine has ended, every executor is idle, and the
// pool is the size of the concurrency it saw — four callers, each with a
// few 1 ms orphans behind it — not of the 400 clients.
func TestDeadlineOrphanTickReleaseRace(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: 100 * time.Microsecond,
	})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "race", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			time.Sleep(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := sys.NewClientWith(ClientOptions{})
				var args Args
				args[0] = uint64((g + i) % 2) // even: instant, odd: outlives the deadline
				err := c.CallDeadline(svc.EP(), &args, 300*time.Microsecond)
				if err != nil && !errors.Is(err, ErrDeadline) {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	sh := &sys.shards[0]
	waitCond(t, 5*time.Second, "every executor back in the pool", func() bool {
		return idleExecs(sh) == sh.deadlineExecs()
	})
	if n := sh.deadlineExecs(); n == 0 || n > 40 {
		t.Fatalf("%d executors after 400 clients' calls, four at a time; want a handful", n)
	}
}

// Close with executors idle and in flight: Close retires the idle one
// before it returns, a wedged orphan does not block it, the orphan's
// executor exits — instead of going back to the executor pool — when its
// handler returns and hands its descriptor back, the tick
// loop then stops, and a deadline call after Close still works and
// leaves nothing parked either.
func TestCloseDrainsArmedDeadlines(t *testing.T) {
	leakCheck(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: 200 * time.Microsecond,
	})
	sh := &sys.shards[0]
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	wedge, err := sys.Bind(ServiceConfig{Name: "wedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.Bind(ServiceConfig{Name: "fast", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	// Outlives its deadline however late this host delivers the tick: the
	// test lets it go once its caller has been told ErrDeadline.
	expired := make(chan struct{})
	slow, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) { <-expired }})
	if err != nil {
		t.Fatal(err)
	}
	// Orphan a call: its handler is still wedged when Close runs. Close
	// joins async workers only — it must not deadlock on the orphan or
	// on the still-ticking watchdog.
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.CallDeadline(wedge.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	<-entered
	// A second executor, idle when Close runs.
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if sh.deadlineExecs() != 2 || idleExecs(sh) != 1 {
		t.Fatalf("%d executors, %d idle before Close; want the orphan's and an idle one", sh.deadlineExecs(), idleExecs(sh))
	}
	closed := make(chan struct{})
	go func() {
		sys.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with an orphaned handler and an idle executor")
	}
	waitCond(t, 5*time.Second, "the idle executor to exit", func() bool {
		return sh.deadlineExecs() == 1 && executors() == 1
	})
	if st := sys.Stats()[0]; st.QuarantinedCDs != 1 {
		t.Fatalf("QuarantinedCDs = %d across Close with the orphan still running, want 1", st.QuarantinedCDs)
	}
	// The orphan returns after Close: its executor ends the quarantine,
	// exits rather than repools itself, and returns its descriptor.
	pooled := sys.Stats()[0].PooledCDs
	close(block)
	waitCond(t, 5*time.Second, "the orphan's executor to exit", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0 && sh.deadlineExecs() == 0 && executors() == 0
	})
	if got := sys.Stats()[0].PooledCDs; got != pooled+1 {
		t.Fatalf("PooledCDs %d → %d: an exiting executor returns its descriptor, once", pooled, got)
	}
	watchdogOff := func() bool {
		sh.qMu.Lock()
		defer sh.qMu.Unlock()
		return !sh.watchdogOn
	}
	waitCond(t, 5*time.Second, "watchdog exited after draining", watchdogOff)
	// Synchronous calls keep working after Close by contract — a deadline
	// call makes an executor, restarts the loop, and retires the executor
	// on its way out; a second drain converges again.
	var a2 Args
	for i := 0; i < 3; i++ {
		if err := c.CallDeadline(fast.EP(), &a2, time.Second); err != nil {
			t.Fatalf("post-close CallDeadline = %v, want success (sync calls survive Close)", err)
		}
	}
	err = c.CallDeadline(slow.EP(), &a2, time.Millisecond)
	close(expired)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("post-close expiry: err = %v, want ErrDeadline", err)
	}
	c.Release()
	waitCond(t, 5*time.Second, "second post-close drain", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0 && sh.deadlineExecs() == 0 && executors() == 0 && watchdogOff()
	})
}

// Ticket reuse across re-arm: a call whose completion races its own
// expiry may leave the tick holding a deadline it has read and not yet
// acted on; the immediately following far-deadline call on the same (or
// replacement) ticket must never be spuriously orphaned by it. This is
// the generation + deadline-revalidation ABA defense under its tightest
// timing.
func TestDeadlineTicketReuseAcrossRearm(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: 100 * time.Microsecond,
	})
	defer sys.Close()
	racy, err := sys.Bind(ServiceConfig{Name: "racy", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			time.Sleep(300 * time.Microsecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.Bind(ServiceConfig{Name: "rfast", Handler: func(ctx *Ctx, args *Args) { args[0] = 7 }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	for i := 0; i < 150; i++ {
		var args Args
		args[0] = uint64(i % 2) // alternate instant completion and a near-deadline finish
		err := c.CallDeadline(racy.EP(), &args, 300*time.Microsecond)
		if err != nil && !errors.Is(err, ErrDeadline) {
			t.Fatalf("iteration %d racy call: %v", i, err)
		}
		// Immediate far re-arm, while the tick may still be acting on the
		// racy call's deadline.
		var far Args
		if err := c.CallDeadline(fast.EP(), &far, time.Hour); err != nil {
			t.Fatalf("iteration %d: far re-arm spuriously failed: %v", i, err)
		}
		if far[0] != 7 {
			t.Fatalf("iteration %d: far call result = %d", i, far[0])
		}
	}
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
}

// Nothing disarms a met deadline: the word stays on the idle executor
// until the next call overwrites it, with zero if that call has no expiry.
// A cancel-only CallContext that takes the executor after the stale word
// has come due must run to its handler's end, not be orphaned by it — and
// a due word on a ticket whose call has yet to open its waiting phase must
// survive the tick, so the call is not left without its deadline.
func TestDeadlineStaleWordDoesNotOrphanNextCall(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 100 * time.Microsecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "stale", Handler: func(ctx *Ctx, args *Args) {
		time.Sleep(time.Duration(args[0]))
		args[1] = 7
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	if err := c.CallDeadline(svc.EP(), &Args{}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	e := sh.execs()[0]
	if e.ticket.deadline.Load() == 0 {
		t.Fatal("the met deadline was disarmed: this test no longer builds the stale word")
	}
	time.Sleep(3 * time.Millisecond) // the stale word is due, and ticks have seen it
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	args := Args{uint64(3 * time.Millisecond)}
	if err := c.CallContext(ctx, svc.EP(), &args); err != nil || args[1] != 7 {
		t.Fatalf("a cancel-only call behind a stale due word: err %v, result %d; want its handler's result", err, args[1])
	}
	if n := sys.Stats()[0].DeadlineExpirations; n != 0 {
		t.Fatalf("DeadlineExpirations = %d, want 0", n)
	}
	// The window between a call's two arming stores, held open: the tick
	// leaves the due word alone, and acts on it once the phase is open.
	if sh.popExec() != e {
		t.Fatal("the one executor is not idle")
	}
	gen := e.ticket.state.Load()>>dlGenShift + 1
	e.ticket.deadline.Store(1)
	sh.expireDeadlines(sh.clock.refresh())
	if d := e.ticket.deadline.Load(); d != 1 {
		t.Fatalf("the tick took the deadline (now %d) of a call that had not opened its waiting phase", d)
	}
	e.ticket.state.Store(gen<<dlGenShift | dlPhaseWaiting)
	sh.expireDeadlines(sh.clock.refresh())
	if s := e.ticket.state.Load(); s != gen<<dlGenShift|dlPhaseOrphaned {
		t.Fatalf("state %#x after a tick over a due, waiting ticket; want generation %d orphaned", s, gen)
	}
	sh.quarantinedCDs.Add(-1) // no handler is running: undo orphan's count
	<-e.ticket.done
	sh.pushExec(e)
}
