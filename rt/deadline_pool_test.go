package rt

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Tests for the per-shard executor pool: its size follows the shard's
// concurrent deadline calls, never its client count, and an executor goes
// back to it from whichever side read the ticket last.

// liveHeap is the heap in use once earlier garbage — and what its cleanups
// free a cycle later — is gone.
func liveHeap() uint64 {
	var m runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapPerClient is the live heap n clients built by mk cost, each.
func heapPerClient(n int, mk func() *Client) (float64, []*Client) {
	clients := make([]*Client, n)
	before := liveHeap()
	for i := range clients {
		clients[i] = mk()
	}
	return (float64(liveHeap()) - float64(before)) / float64(n), clients
}

// A client holds nothing for the deadline path: any number of clients
// making one CallDeadline each, in turn, leave one executor — one
// goroutine, one descriptor — and each costs the heap of a client that
// never made a deadline call (ROADMAP item 7's keep rule: ≤ 512 B and no
// goroutine per idle client). At the parent every one of them kept an
// executor, its goroutine and a second descriptor: 5.4 KB of heap and
// 2 KB of stack.
func TestDeadlinePoolPopulation(t *testing.T) {
	leakCheck(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	// The executor and the tick loop exist before either population is
	// measured.
	if err := sys.NewClientOnShard(0).CallDeadline(svc.EP(), &Args{}, time.Hour); err != nil {
		t.Fatal(err)
	}
	plain, keepPlain := heapPerClient(n, func() *Client { return sys.NewClientOnShard(0) })
	called, keepCalled := heapPerClient(n, func() *Client {
		c := sys.NewClientOnShard(0)
		if err := c.CallDeadline(svc.EP(), &Args{}, time.Hour); err != nil {
			t.Fatal(err)
		}
		return c
	})
	t.Logf("%d clients: %.0f B each having made one CallDeadline, %.0f B each having made none; %d executor goroutines",
		n, called, plain, executors())
	if !raceEnabled && called-plain > 64 {
		t.Errorf("a client that made a deadline call costs %.0f B, one that never did %.0f B; want them within 64 B", called, plain)
	}
	if st := sys.Stats()[0]; executors() != 1 || sh.deadlineExecs() != 1 || st.CDsCreated > 2 {
		t.Errorf("%d executor goroutines, %d executors registered, %d descriptors created after %d clients; want 1, 1 and at most 2",
			executors(), sh.deadlineExecs(), st.CDsCreated, n+1)
	}
	runtime.KeepAlive(keepPlain)
	runtime.KeepAlive(keepCalled)
}

// N goroutines, each working through M clients of its own, all on one
// shard: the pool grows to at most N executors — the concurrency, not the
// N×M clients — and everything converges.
func TestDeadlinePoolConcurrentGrowth(t *testing.T) {
	leakCheck(t)
	const goroutines, clients, calls = 4, 50, 20
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "grow", Handler: func(ctx *Ctx, args *Args) {
		args[1] = args[0] + 1
		runtime.Gosched() // let the callers overlap on any P count
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < clients; m++ {
				c := sys.NewClientOnShard(0)
				for i := 0; i < calls; i++ {
					args := Args{uint64(g)<<40 | uint64(m)<<20 | uint64(i)}
					if err := c.CallDeadline(svc.EP(), &args, time.Hour); err != nil || args[1] != args[0]+1 {
						t.Errorf("goroutine %d client %d call %d: err %v, result %#x for %#x", g, m, i, err, args[1], args[0])
						return
					}
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	st := sys.Stats()[0]
	if n := sh.deadlineExecs(); n == 0 || n > goroutines || idleExecs(sh) != n || executors() != n {
		t.Errorf("%d executors (%d idle, %d goroutines) after %d goroutines × %d clients; want at most %d, all parked",
			n, idleExecs(sh), executors(), goroutines, clients, goroutines)
	}
	if st.QuarantinedCDs != 0 || st.LeasesActive != 0 || st.HeldCDs != 0 || svc.inFlightTotal() != 0 ||
		svc.Calls() != goroutines*clients*calls {
		t.Errorf("QuarantinedCDs = %d, LeasesActive = %d, HeldCDs = %d, %d in flight, %d calls; want 0, 0, 0, 0 and %d",
			st.QuarantinedCDs, st.LeasesActive, st.HeldCDs, svc.inFlightTotal(), svc.Calls(), goroutines*clients*calls)
	}
}

// A hundred orphanings in a row, each by a client of its own, two orphans
// running at any time: the executors the first few made are reused by the
// rest (no descriptor is created after the warm-up), and each orphan's
// payload lease is settled when its *handler* returns, not when its
// caller did.
func TestDeadlinePoolOrphansReuseExecutors(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: 100 * time.Microsecond})
	defer sys.Close()
	sh := &sys.shards[0]
	defer nonNegativeQuarantine(t, sh)()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	svc, err := sys.Bind(ServiceConfig{Name: "orphans", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-release
		args[0] = 99 // must reach nobody
	}})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, warmup = 100, 3
	var created int64
	for i := 0; i < rounds; i++ {
		c := sys.NewClientOnShard(0)
		ref, _, err := c.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		var args Args
		args.AttachPayload(ref)
		if err := c.CallDeadline(svc.EP(), &args, 200*time.Microsecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("round %d: err = %v, want ErrDeadline", i, err)
		}
		<-entered
		if args[0] == 99 {
			t.Fatalf("round %d: an orphan's result reached a caller", i)
		}
		// This round's orphan and (past the first round) the previous one.
		running := int64(min(i+1, 2))
		if st := sys.Stats()[0]; st.QuarantinedCDs != running || st.LeasesActive != running {
			t.Fatalf("round %d: QuarantinedCDs = %d, LeasesActive = %d with %d orphans running; want both %d",
				i, st.QuarantinedCDs, st.LeasesActive, running, running)
		}
		if i > 0 {
			release <- struct{}{} // the previous round's handler returns; this round's runs on
			waitCond(t, 5*time.Second, "the returned orphan's lease and quarantine to settle", func() bool {
				st := sys.Stats()[0]
				return st.QuarantinedCDs == 1 && st.LeasesActive == 1 && idleExecs(sh) == sh.deadlineExecs()-1
			})
		}
		c.Release()
		switch st := sys.Stats()[0]; {
		case i == warmup:
			created = st.CDsCreated
		case i > warmup && st.CDsCreated != created:
			t.Fatalf("round %d: CDsCreated %d → %d; want the warm-up's executors reused", i, created, st.CDsCreated)
		}
	}
	release <- struct{}{}
	waitCond(t, 5*time.Second, "the last orphan to settle", func() bool {
		st := sys.Stats()[0]
		return st.QuarantinedCDs == 0 && st.LeasesActive == 0 && idleExecs(sh) == sh.deadlineExecs()
	})
	if n := sh.deadlineExecs(); n > warmup {
		t.Errorf("%d executors after %d orphanings, two at a time; want at most %d", n, rounds, warmup)
	}
	if st := sys.Stats()[0]; st.DeadlineExpirations != rounds {
		t.Errorf("DeadlineExpirations = %d, want %d", st.DeadlineExpirations, rounds)
	}
}

// An orphaned call has two parties on its ticket — the caller, parked on
// the done channel until it has seen the orphaning, and the executor, whose
// handler is still running — and the executor is poppable only when both
// have left, in either order: the first to leave marks the state word, the
// second pushes it.
func TestDeadlineOrphanLastToLeaveRepools(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	e := sh.newExec(sys)
	for gen := uint64(1); gen <= 2; gen++ {
		e.ticket.state.Store(gen<<dlGenShift | dlPhaseWaiting)
		if !e.orphan(gen<<dlGenShift | dlPhaseWaiting) {
			t.Fatalf("generation %d: the executor just taken is not waiting", gen)
		}
		sh.quarantinedCDs.Add(-1) // no handler is running: undo orphan's count
		e.leave(gen)
		if s := e.ticket.state.Load(); s != gen<<dlGenShift|dlPhaseLeft {
			t.Fatalf("state %#x after the first party left, want generation %d marked left", s, gen)
		}
		if other := sh.popExec(); other != nil {
			t.Fatalf("generation %d: an executor was poppable with one party still on the only ticket", gen)
		}
		e.leave(gen)
		if got := sh.popExec(); got != e {
			t.Fatalf("generation %d: both parties left and the pop found %p, want the executor back", gen, got)
		}
	}
	sh.pushExec(e)
}

// The idle stack's head carries a tag because an executor is pushed back
// while a popper that read the head before may still be about to CAS it: A
// reads head = X and X's link Y; X and Y are popped and X alone pushed back.
// A pointer head would take A's CAS and put Y — in use — on the stack.
func TestDeadlinePoolStalePopFails(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	x, y := sh.newExec(sys), sh.newExec(sys)
	sh.pushExec(y)
	sh.pushExec(x)
	stale := sh.dlIdle.Load() // popper A: head = x, whose link is y
	if sh.popExec() != x || sh.popExec() != y {
		t.Fatal("pops out of LIFO order")
	}
	sh.pushExec(x) // y stays in use
	if uint32(sh.dlIdle.Load()) != uint32(stale) {
		t.Fatal("head does not name x's slot again: the test no longer builds the ABA shape")
	}
	if sh.dlIdle.CompareAndSwap(stale, stale&^dlSlotMask|uint64(y.slot+1)) {
		t.Fatal("a pop that slept through its top's pop and push took its CAS: y, in use, is on the idle stack")
	}
	if sh.popExec() != x || sh.popExec() != nil {
		t.Fatal("the stack holds something other than x alone")
	}
	sh.pushExec(x)
	sh.pushExec(y)
}
