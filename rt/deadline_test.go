package rt

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// idleExecs counts the shard's executors a call could take: the length of
// the idle stack (a walk that races a pop or push may miscount; callers poll).
func idleExecs(sh *shard) int {
	list, n := sh.execs(), 0
	for i := int(sh.dlIdle.Load() & dlSlotMask); i != 0 && i <= len(list) && list[i-1] != nil && n <= len(list); n++ {
		i = int(list[i-1].next.Load())
	}
	return n
}

func TestCallDeadlineCompletes(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "fast", Handler: func(ctx *Ctx, args *Args) {
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	args[0] = 41
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if args[0] != 42 {
		t.Fatalf("args[0] = %d, want results copied back", args[0])
	}
	// Reused ticket/executor: a second call works identically.
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if args[0] != 43 {
		t.Fatalf("args[0] = %d after second call", args[0])
	}
	if svc.Calls() != 2 {
		t.Fatalf("Calls = %d", svc.Calls())
	}
}

func TestCallDeadlineZeroIsPlainCall(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "plain", Handler: func(ctx *Ctx, args *Args) {
		args[0] = 7
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, 0); err != nil {
		t.Fatal(err)
	}
	if args[0] != 7 {
		t.Fatalf("args[0] = %d", args[0])
	}
	if n := sys.shards[0].deadlineExecs(); n != 0 {
		t.Fatalf("d <= 0 took an executor: %d registered", n)
	}
}

func TestCallDeadlineExpiresAndOrphans(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
		args[0] = 99 // must not reach the caller's args
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	errc := make(chan error, 1)
	go func() { errc <- c.CallDeadline(svc.EP(), &args, 2*time.Millisecond) }()
	<-entered
	err = <-errc
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if args[0] != 0 {
		t.Fatalf("orphaned handler wrote through to caller args: %d", args[0])
	}
	st := sys.Stats()[0]
	if st.QuarantinedCDs != 1 {
		t.Fatalf("QuarantinedCDs = %d, want 1 while the orphan runs", st.QuarantinedCDs)
	}
	if st.HeldCDs != 0 {
		t.Fatalf("HeldCDs = %d, want 0: a deadline call holds nothing of the client's", st.HeldCDs)
	}
	if st.DeadlineExpirations != 1 {
		t.Fatalf("DeadlineExpirations = %d", st.DeadlineExpirations)
	}
	// The client's next call takes another executor (and its descriptor):
	// it succeeds while the orphan is still stuck on the first.
	var again Args
	fast, err := sys.Bind(ServiceConfig{Name: "fast2", Handler: func(ctx *Ctx, args *Args) { args[0] = 5 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CallDeadline(fast.EP(), &again, time.Second); err != nil {
		t.Fatalf("call behind the orphan failed: %v", err)
	}
	if again[0] != 5 {
		t.Fatalf("call behind the orphan: result = %d", again[0])
	}
	// Release the orphan: the executor goroutine (the one that observed
	// handler return) ends the quarantine and goes back to the pool.
	close(block)
	sh := &sys.shards[0]
	waitCond(t, time.Second, "quarantine end, both executors idle", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0 && idleExecs(sh) == 2
	})
	c.Release()
	if err := c.CallDeadline(fast.EP(), &again, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats()[0]; sh.deadlineExecs() != 2 || st.CDsCreated != 2 {
		t.Fatalf("%d executors, %d descriptors created; want the two the orphaning left, reused", sh.deadlineExecs(), st.CDsCreated)
	}
}

func TestCallDeadlineOrphanDrainsThroughSoftKill(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "wedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	<-entered
	// The orphaned handler still counts in flight: a soft kill must wait
	// for it.
	killed := make(chan struct{})
	go func() {
		if err := sys.Kill(svc.EP(), false); err != nil {
			t.Error(err)
		}
		close(killed)
	}()
	select {
	case <-killed:
		t.Fatal("soft kill returned while the orphaned handler was running")
	case <-time.After(10 * time.Millisecond):
	}
	close(block)
	select {
	case <-killed:
	case <-time.After(2 * time.Second):
		t.Fatal("soft kill never finished after the orphan returned")
	}
}

func TestCallContextCancel(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "cslow", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	c := sys.NewClientOnShard(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
	if sys.Stats()[0].QuarantinedCDs != 1 {
		t.Fatal("cancellation must quarantine exactly like expiry")
	}
}

func TestCallContextPlain(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "cfast", Handler: func(ctx *Ctx, args *Args) { args[0] = 3 }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	if err := c.CallContext(context.Background(), svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != 3 {
		t.Fatalf("args[0] = %d", args[0])
	}
	if n := sys.shards[0].deadlineExecs(); n != 0 {
		t.Fatalf("a background context took an executor (%d registered): it must take the plain Call path", n)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := c.CallContext(dctx, svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
}

func TestCallContextAlreadyExpired(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "never", Handler: func(ctx *Ctx, args *Args) {
		t.Error("handler must not run for an already-expired context")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	_ = svc
}

func TestAsyncCallDeadlineExpiresInQueue(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var ran int64
	svc, err := sys.Bind(ServiceConfig{Name: "aslow", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
		ran++
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1 // one worker, and we wedge it
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Queue a request with a deadline that expires while the only worker
	// is wedged; deliver its notification to prove expiry still settles.
	done := make(chan struct{}, 1)
	var short Args
	if err := c.AsyncCallNotifyDeadline(svc.EP(), &short, done, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("expired request never delivered its notification")
	}
	waitCond(t, time.Second, "deadline expiration recorded", func() bool {
		return sys.Stats()[0].DeadlineExpirations == 1
	})
	if ran != 0 {
		t.Fatalf("expired request executed (ran = %d)", ran)
	}
	// In-flight accounting is balanced: a soft kill drains immediately.
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSetDeadline(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var ran int64
	svc, err := sys.Bind(ServiceConfig{Name: "bslow", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
		ran++
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	b := c.NewBatch(svc.EP(), 4)
	b.SetDeadline(time.Millisecond)
	done := make(chan struct{}, 4)
	b.SetNotify(done)
	var args Args
	for i := 0; i < 3; i++ {
		b.Add(&args)
	}
	if n, err := b.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("notification %d never arrived", i)
		}
	}
	if ran != 0 {
		t.Fatalf("expired batch executed %d requests", ran)
	}
	waitCond(t, time.Second, "batch expirations recorded", func() bool {
		return sys.Stats()[0].DeadlineExpirations == 3
	})
}

// Release and Close of a client leave the shard's executor pool alone —
// a client holds nothing for the deadline path — and System.Close retires
// it.
func TestReleaseLeavesExecutorPool(t *testing.T) {
	leakCheck(t)
	waitCond(t, 5*time.Second, "earlier tests' executors to exit", func() bool { return executors() == 0 })
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "rfast", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	for round := 0; round < 3; round++ {
		if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
			t.Fatal(err)
		}
		c.Release() // the client stays usable
		if sh.deadlineExecs() != 1 || idleExecs(sh) != 1 || executors() != 1 {
			t.Fatalf("round %d: %d executors registered, %d idle, %d goroutines after Release; want the one, parked",
				round, sh.deadlineExecs(), idleExecs(sh), executors())
		}
	}
	sys.Close()
	waitCond(t, 5*time.Second, "Close to retire the pool", func() bool {
		return sh.deadlineExecs() == 0 && executors() == 0
	})
}
