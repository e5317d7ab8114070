package rt

import (
	"testing"
	"time"
)

// watchdogSystem builds a 1-shard system with a fast supervision tick
// so the tests run in milliseconds.
func watchdogSystem() *System {
	return NewSystemOptions(Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
}

func TestWatchdogReplacesStuckWorker(t *testing.T) {
	sys := watchdogSystem()
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "wedger", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1 // a single worker, which we wedge
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Submit normal work behind the wedged worker; the watchdog must
	// notice the stall and spawn a replacement that drains it.
	done := make(chan struct{}, 4)
	var args Args
	for i := 0; i < 4; i++ {
		if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d never serviced past the stuck worker", i)
		}
	}
	st := sys.Stats()[0]
	if st.ReplacementsSpawned == 0 {
		t.Fatalf("no replacement spawned: %+v", st)
	}
	if st.StuckWorkers == 0 {
		t.Fatalf("stuck worker not detected: %+v", st)
	}
	// Unwedge: the compensation is revoked, a surplus worker retires,
	// and the pool converges back to the configured cap.
	close(block)
	waitCond(t, 2*time.Second, "worker pool convergence", func() bool {
		st := sys.Stats()[0]
		return st.ReplacementsReclaimed >= st.ReplacementsSpawned &&
			st.AsyncWorkers <= 1
	})
	waitCond(t, 2*time.Second, "stuck gauge clears", func() bool {
		return sys.Stats()[0].StuckWorkers == 0
	})
	// The shard still works.
	n := make(chan struct{}, 1)
	if err := c.AsyncCallNotify(svc.EP(), &args, n); err != nil {
		t.Fatal(err)
	}
	select {
	case <-n:
	case <-time.After(2 * time.Second):
		t.Fatal("post-recovery request never serviced")
	}
}

func TestWatchdogReplacementsBounded(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	svc, err := sys.Bind(ServiceConfig{Name: "allwedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1
	c := sys.NewClientOnShard(0)
	var args Args
	// Wedge the original worker, then each replacement as it appears:
	// every live worker gets stuck, and the replacement count must
	// saturate at the bound instead of growing without limit.
	for i := 0; i < maxReplacements+1; i++ {
		if err := c.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			if i < 1 {
				t.Fatalf("request %d never started", i)
			}
			// Replacements exhausted before every request could start —
			// also a valid saturation shape; stop feeding.
		}
	}
	waitCond(t, 2*time.Second, "replacements to saturate", func() bool {
		return sys.Stats()[0].ReplacementsSpawned >= maxReplacements
	})
	time.Sleep(20 * time.Millisecond) // give an unbounded bug time to show
	st := sys.Stats()[0]
	if st.ReplacementsSpawned > maxReplacements {
		t.Fatalf("ReplacementsSpawned = %d, bound is %d", st.ReplacementsSpawned, maxReplacements)
	}
	if st.AsyncWorkers > 1+maxReplacements {
		t.Fatalf("AsyncWorkers = %d, want <= maxWorkers+bound", st.AsyncWorkers)
	}
	close(block)
	waitCond(t, 2*time.Second, "pool convergence after unwedge", func() bool {
		st := sys.Stats()[0]
		return st.AsyncWorkers <= 1 && st.StuckWorkers == 0 &&
			st.ReplacementsReclaimed >= st.ReplacementsSpawned
	})
}

func TestWatchdogDisabled(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:               1,
		WorkerStallThreshold: -1,
	})
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "unwatched", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	sh.qMu.Lock()
	started := sh.watchdogOn
	sh.qMu.Unlock()
	if started {
		t.Fatal("watchdog started despite negative stall threshold")
	}
	time.Sleep(10 * time.Millisecond)
	if st := sys.Stats()[0]; st.ReplacementsSpawned != 0 || st.StuckWorkers != 0 {
		t.Fatalf("disabled watchdog acted: %+v", st)
	}
	close(block)
}

func TestWatchdogIdleWorkersNotStuck(t *testing.T) {
	sys := watchdogSystem()
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "quick", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	done := make(chan struct{}, 1)
	var args Args
	if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
		t.Fatal(err)
	}
	<-done
	// The worker is now idle (parked or spinning). Give the watchdog a
	// few ticks: idleness must not read as a stall.
	time.Sleep(10 * time.Millisecond)
	if st := sys.Stats()[0]; st.StuckWorkers != 0 || st.ReplacementsSpawned != 0 {
		t.Fatalf("idle worker counted stuck: %+v", st)
	}
}
