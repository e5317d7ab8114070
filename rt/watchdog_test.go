package rt

import (
	"testing"
	"time"
)

// watchdogSystem builds a 1-shard system with a fast supervision tick
// so the tests run in milliseconds.
func watchdogSystem(t testing.TB) *System {
	return newSystem(t, Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
}

func TestWatchdogReplacesStuckWorker(t *testing.T) {
	sys := watchdogSystem(t)
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
	c := sys.NewClientWith(ClientOptions{})
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Submit normal work behind the wedged worker; the watchdog must
	// count the stall, and the room it makes must be filled by a worker
	// that drains the ring.
	done := make(chan struct{}, 4)
	var args Args
	for i := 0; i < 4; i++ {
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
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
	if st.AsyncWorkers != 2 || st.StuckWorkers != 1 {
		t.Fatalf("want 2 workers, 1 of them stuck, while the wedge holds: %+v", st)
	}
	// Unwedge: the stuck gauge clears, the cap falls back to 1, and the
	// surplus worker leaves at its park point.
	close(block)
	waitCond(t, 2*time.Second, "worker pool convergence", func() bool {
		st := sys.Stats()[0]
		return st.AsyncWorkers == 1 && st.StuckWorkers == 0
	})
	// The shard still works.
	n := make(chan struct{}, 1)
	if err := asyncOne(c, svc.EP(), &args, n, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-n:
	case <-time.After(2 * time.Second):
		t.Fatal("post-recovery request never serviced")
	}
}

// TestWatchdogNoWorkNoSpawn: a wedged worker with nothing queued behind
// it costs no goroutine. Work that arrives later still gets a worker
// while the wedge holds: the tick sees a stuck worker and a non-empty
// ring and grows the pool into the room the stuck worker made.
func TestWatchdogNoWorkNoSpawn(t *testing.T) {
	sys := watchdogSystem(t)
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "wedger", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	c := sys.NewClientWith(ClientOptions{})
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	time.Sleep(10 * sys.shards[0].stallThreshold)
	if st := sys.Stats()[0]; st.StuckWorkers != 1 || st.AsyncWorkers != 1 {
		t.Fatalf("wedged worker with an empty ring: StuckWorkers %d, AsyncWorkers %d; want 1 and 1", st.StuckWorkers, st.AsyncWorkers)
	}
	done := make(chan struct{}, 4)
	var args Args
	for i := 0; i < 4; i++ {
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d never serviced while the first worker is wedged", i)
		}
	}
	if st := sys.Stats()[0]; st.StuckWorkers != 1 {
		t.Fatalf("the first worker is no longer counted stuck: %+v", st)
	}
}

// sampleWorkers polls shard 0's AsyncWorkers every interval until the
// returned stop is called; stop reports the largest value seen.
func sampleWorkers(sys *System, every time.Duration) (stop func() int64) {
	quit, peak := make(chan struct{}), make(chan int64)
	go func() {
		var most int64
		for {
			most = max(most, sys.Stats()[0].AsyncWorkers)
			select {
			case <-quit:
				peak <- most
				return
			case <-time.After(every):
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-peak
	}
}

func TestWatchdogReplacementsBounded(t *testing.T) {
	sys := newSystem(t, Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
	block := make(chan struct{})
	const requests = maxReplacements + 3
	entered := make(chan struct{}, requests)
	svc, err := sys.Bind(ServiceConfig{Name: "allwedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	// Every request wedges its worker. Feed them one at a time, so each
	// is the only request in the ring when a worker claims it: each stuck
	// worker makes room for one more, up to the bound. Then queue more
	// than the bound admits workers for; the pool must stop at the bound
	// with that backlog still waiting.
	for i := 0; i < requests; i++ {
		if err := c.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		if i > maxReplacements {
			continue
		}
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d never started", i)
		}
	}
	if st := sys.Stats()[0]; st.AsyncWorkers != 1+maxReplacements {
		t.Fatalf("AsyncWorkers = %d with every worker wedged, want maxWorkers+bound = %d", st.AsyncWorkers, 1+maxReplacements)
	}
	stop := sampleWorkers(sys, time.Millisecond)
	time.Sleep(20 * time.Millisecond) // give an unbounded bug time to show
	if peak := stop(); peak > 1+maxReplacements {
		t.Fatalf("AsyncWorkers peaked at %d, want <= maxWorkers+bound = %d", peak, 1+maxReplacements)
	}
	close(block)
	for i := maxReplacements + 1; i < requests; i++ {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("queued request %d never started", i)
		}
	}
	waitCond(t, 2*time.Second, "pool convergence after unwedge", func() bool {
		st := sys.Stats()[0]
		return st.AsyncWorkers == 1 && st.StuckWorkers == 0
	})
}

func TestWatchdogDisabled(t *testing.T) {
	sys := newSystem(t, Options{
		Shards:               1,
		WorkerStallThreshold: -1,
	})
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
	c := sys.NewClientWith(ClientOptions{})
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
	if st := sys.Stats()[0]; st.AsyncWorkers != 1 || st.StuckWorkers != 0 {
		t.Fatalf("disabled watchdog acted: %+v", st)
	}
	close(block)
}

func TestWatchdogIdleWorkersNotStuck(t *testing.T) {
	sys := watchdogSystem(t)
	svc, err := sys.Bind(ServiceConfig{Name: "quick", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	done := make(chan struct{}, 1)
	var args Args
	if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
		t.Fatal(err)
	}
	<-done
	// The worker is now idle (parked or spinning). Give the watchdog a
	// few ticks: idleness must not read as a stall.
	time.Sleep(10 * time.Millisecond)
	if st := sys.Stats()[0]; st.StuckWorkers != 0 || st.AsyncWorkers != 1 {
		t.Fatalf("idle worker counted stuck: %+v", st)
	}
}
