package rt

import (
	"context"
	"errors"
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
	const tick = 50 * time.Microsecond
	calls := 10_000
	if testing.Short() {
		calls = 1_000
	}
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: tick})
	defer sys.Close()
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
// its wait. Two sources: a CallContext whose cancellation fires just as
// the executor wins the state CAS (the handler cancels its own caller's
// ctx on the way out), and — white box — a token planted in the
// ticket's channel. Either way the long call that follows at once must
// not return before its handler has.
func TestCallContextStaleDoneToken(t *testing.T) {
	rounds := 2_000
	if testing.Short() {
		rounds = 200
	}
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 50 * time.Microsecond})
	defer sys.Close()
	var cancel atomic.Pointer[context.CancelFunc]
	racy, err := sys.Bind(ServiceConfig{Name: "selfcancel", Handler: func(ctx *Ctx, args *Args) {
		args[0]++
		(*cancel.Load())()
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
	c := sys.NewClientOnShard(0)
	defer c.Release()
	won, lost := 0, 0
	for n := uint64(1); n <= uint64(rounds); n++ {
		ctx, cf := context.WithCancel(context.Background())
		cancel.Store(&cf)
		var args Args
		args[0] = n
		switch err := c.CallContext(ctx, racy.EP(), &args); {
		case err == nil:
			won++
			if args[0] != n+1 {
				t.Fatalf("round %d: result %d, want %d", n, args[0], n+1)
			}
		case errors.Is(err, context.Canceled):
			lost++
		default:
			t.Fatalf("round %d: %v", n, err)
		}
		if n%2 == 0 && c.dl != nil {
			// Plant a token on the ticket the long call is about to reuse
			// (a round the cancellation won starts on a fresh one).
			c.dl.ticket.done <- struct{}{}
		}
		args[0] = n
		if err := c.CallDeadline(long.EP(), &args, time.Hour); err != nil {
			t.Fatalf("round %d: long call: %v", n, err)
		}
		if returned.Load() != n || args[0] != n+1 {
			t.Fatalf("round %d: long call returned before its handler did (handler at %d, result %d)",
				n, returned.Load(), args[0])
		}
	}
	t.Logf("%d completed, %d cancelled", won, lost)
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
}

// executors counts live deadline-executor goroutines by creation site.
func executors() int {
	n := 0
	for site, k := range goroutineSites() {
		if strings.Contains(site, "armDeadlineExec") {
			n += k
		}
	}
	return n
}

// No executor goroutine outlives its client, whichever way the client
// goes: Release, an orphan's reclaim, Abandon + scavenge, or Abandon
// racing Release (both retire the one executor). leakCheck covers
// everything else the system started once it is closed.
func TestDeadlineExecutorGoroutineAccounting(t *testing.T) {
	// Earlier tests' executors exit asynchronously after their Release.
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
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for executors() != 0 || sh.deadlineExecs() != 0 || sh.quarantinedCDs.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %d executors, %d on the shard's list, %d quarantined",
					what, executors(), sh.deadlineExecs(), sh.quarantinedCDs.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var args Args

	c := sys.NewClientOnShard(0)
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if executors() != 1 {
		t.Fatalf("executors = %d after arming, want 1", executors())
	}
	c.Release()
	settled("executor exit after Release")

	c = sys.NewClientOnShard(0)
	if err := c.CallDeadline(slow.EP(), &args, 200*time.Microsecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	close(block)
	settled("executor exit after the orphan's reclaim")
	c.Release()

	c = sys.NewClientOnShard(0)
	if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	settled("executor exit after Abandon + scavenge")

	for i := 0; i < 200; i++ {
		c := sys.NewClientOnShard(0)
		if err := c.CallDeadline(fast.EP(), &args, time.Second); err != nil {
			t.Fatal(err)
		}
		go c.Abandon()
		c.Release()
	}
	settled("executor exit after Abandon racing Release")
	if got := sh.heldCDs.Load(); got != 0 {
		t.Fatalf("HeldCDs = %d after every client went away", got)
	}
}
