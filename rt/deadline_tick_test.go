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
// Release, Close with armed executors, ticket reuse across re-arm).

// A ctx that is already cancelled (no deadline involved) must fail
// before admission: no handler run, no descriptor held, no executor
// armed, no expiry counted.
func TestCallContextDeadCtxNeverAdmits(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "deadctx", Handler: func(ctx *Ctx, args *Args) {
		t.Error("handler must not run for an already-cancelled context")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
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
	if c.dl != nil {
		t.Fatal("dead-on-arrival ctx armed the executor")
	}
	st := sys.Stats()[0]
	if st.HeldCDs != 0 || st.QuarantinedCDs != 0 || st.DeadlineExpirations != 0 {
		t.Fatalf("dead-on-arrival ctx left side effects: %+v", st)
	}
}

// Caller cancellation is not evidence that the service is sick: any
// number of prompt ctx cancellations must leave the health gate alone,
// while true expiries still trip it, and a cancelled call that carried
// the half-open probe settles the gate back to degraded (no recovery,
// no leak) so a later clean probe can close it.
func TestCallContextCancelNoHealthEvidence(t *testing.T) {
	sys := NewSystemShards(1)
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
	c := sys.NewClientOnShard(0)
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
	// A cancelled half-open probe: no recovery, but the gate settles back
	// to degraded instead of leaking the probe lease.
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
		t.Fatalf("inside restarted window: %v, want shed (gate must not be stuck half-open)", err)
	}
	// After the restarted window a clean probe recovers.
	time.Sleep(10 * time.Millisecond)
	waitCond(t, time.Second, "clean probe recovery", func() bool {
		return c.Call(svc.EP(), &good) == nil
	})
	if !svc.Healthy() {
		t.Fatal("gate never closed after the cancelled probe settled")
	}
}

// The timing contract, through the public API only: a call that outlives
// its deadline d returns ErrDeadline never before d has elapsed and at
// most ~2 ticks after, for any d — a fraction of a tick, 200 ticks (the
// deleted timer wheel cascaded past 64), and a short deadline armed on a
// client whose previous call armed an hour. Default Options: the tick is
// 1 ms and the loop tightens to it from the 5 ms supervision interval at
// the first registration. The companions: TestDeadlineTicketReuseAcrossRearm
// (a completed call's deadline never orphans the next call) and
// TestWarmCallDeadlineAllocs (the warm path stays off the heap).
func TestDeadlineTimingContract(t *testing.T) {
	const (
		tick   = time.Millisecond
		rounds = 3
		// slack is what the wakeup of the caller may add on a busy host;
		// the best of a row's rounds must do far better.
		slack     = 100 * time.Millisecond
		bestSlack = 3 * time.Millisecond
	)
	sys := NewSystemShards(1)
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
	c := sys.NewClientOnShard(0)
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

// A deadline executor registered while the shard's tick loop is already
// running on the supervision interval (any earlier AsyncCall started it)
// must make the loop re-pick its period at once: before startTick's
// token the loop noticed the registration only after its next tick, and
// the first CallDeadline settled a whole WatchdogInterval late.
func TestFirstDeadlineAfterRunningTickIsOnTime(t *testing.T) {
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
	c := sys.NewClientOnShard(0)
	defer c.Release()
	var args Args
	done := make(chan struct{}, 1)
	if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
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
// clients alternate completing calls (Release unlists an executor the
// tick may be looking at) and orphaning them (the orphaned branch
// unlists against the tick that fired it). Run with -race; afterwards
// every quarantined descriptor reclaims and the shard's list is empty.
func TestDeadlineOrphanTickReleaseRace(t *testing.T) {
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
				c := sys.NewClientOnShard(0)
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
	waitCond(t, 5*time.Second, "executor list drained", func() bool {
		return sys.shards[0].deadlineExecs() == 0
	})
}

// Close with executors still registered: an idle armed client and an
// orphaned in-flight call must not deadlock Close, and the tick loop
// must keep running past Close until the last executor retires, then
// exit.
func TestCloseDrainsArmedDeadlines(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:           1,
		WatchdogInterval: 200 * time.Microsecond,
	})
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
	// Idle client with a registered executor (armed by a completed call)
	// that will outlive Close.
	idle := sys.NewClientOnShard(0)
	var args Args
	if err := idle.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	// Orphan a call: its handler is still wedged when Close runs. Close
	// joins async workers only — it must not deadlock on the orphan or
	// on the still-ticking watchdog.
	c := sys.NewClientOnShard(0)
	if err := c.CallDeadline(wedge.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		sys.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with an orphaned handler and registered executors")
	}
	// The orphan returns after Close: its executor must drop the
	// descriptor (close epoch advanced) and end the quarantine.
	pooled := sys.Stats()[0].PooledCDs
	close(block)
	waitCond(t, 5*time.Second, "quarantine drained across Close", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	// The idle client's executor is still registered; Release unlists
	// it, and the still-ticking loop finds nothing left and exits.
	idle.Release()
	c.Release()
	waitCond(t, 5*time.Second, "executor list drained after Close", func() bool {
		return sys.shards[0].deadlineExecs() == 0 && executors() == 0
	})
	if got := sys.Stats()[0].PooledCDs; got != pooled {
		t.Fatalf("PooledCDs %d → %d: an executor armed before Close repooled into the drained shard", pooled, got)
	}
	waitCond(t, 5*time.Second, "watchdog exited after draining", func() bool {
		sh := &sys.shards[0]
		sh.qMu.Lock()
		on := sh.watchdogOn
		sh.qMu.Unlock()
		return !on
	})
	// Synchronous calls keep working after Close by contract — a
	// deadline call registers an executor and restarts the loop, and a
	// second drain converges again.
	again := sys.NewClientOnShard(0)
	var a2 Args
	if err := again.CallDeadline(fast.EP(), &a2, time.Second); err != nil {
		t.Fatalf("post-close CallDeadline = %v, want success (sync calls survive Close)", err)
	}
	if sys.shards[0].deadlineExecs() == 0 {
		t.Fatal("post-close deadline call did not register its executor")
	}
	again.Release()
	waitCond(t, 5*time.Second, "second post-close drain", func() bool {
		return sys.shards[0].deadlineExecs() == 0
	})
}

// Ticket reuse across re-arm: a call whose completion races its own
// expiry may leave the tick holding a deadline it has read and not yet
// acted on; the immediately following far-deadline call on the same (or
// replacement) ticket must never be spuriously orphaned by it. This is
// the generation + deadline-revalidation ABA defense under its tightest
// timing.
func TestDeadlineTicketReuseAcrossRearm(t *testing.T) {
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
	c := sys.NewClientOnShard(0)
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
