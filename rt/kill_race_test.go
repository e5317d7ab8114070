package rt

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until the service leaves svcActive (the kill has been
// published) so tests can order their steps against a draining Kill.
func waitState(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for svc.state.Load() == svcActive {
		if time.Now().After(deadline) {
			t.Fatal("kill never published its state change")
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// TestKillSoftNoCallExecutesAfterReturn races batches of synchronous
// callers against a soft kill. A handler can only be running while its
// call is counted in flight, and soft Kill stores svcDead only after
// the in-flight count drains — so under the increment-then-check
// admission no handler may ever observe the dead state. The old
// check-then-increment admission had a TOCTOU window where a caller
// validated the state, Kill drained and returned (storing svcDead),
// and the caller then executed on the dead service.
func TestKillSoftNoCallExecutesAfterReturn(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 50
	}
	var svcP atomic.Pointer[Service]
	var onDead atomic.Int64
	handler := func(ctx *Ctx, args *Args) {
		if svc := svcP.Load(); svc != nil && svc.state.Load() == svcDead {
			onDead.Add(1)
		}
	}
	for iter := 0; iter < iters; iter++ {
		sys := NewSystemOptions(Options{Shards: 1})
		svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: handler})
		if err != nil {
			t.Fatal(err)
		}
		svcP.Store(svc)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := sys.NewClientWith(ClientOptions{})
				var args Args
				<-start
				// The call races the kill: success, ErrKilled, and
				// ErrBadEntryPoint are all legal outcomes — executing
				// on the dead service is not.
				err := c.Call(svc.EP(), &args)
				if err != nil && !errors.Is(err, ErrKilled) && !errors.Is(err, ErrBadEntryPoint) {
					t.Error(err)
				}
			}()
		}
		close(start)
		if err := sys.Kill(svc.EP(), false); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := onDead.Load(); n != 0 {
			t.Fatalf("iter %d: %d calls executed on the dead service after soft Kill returned", iter, n)
		}
	}
}

// TestKillSoftHeldCDNoCallExecutesAfterReturn re-races the soft-kill
// TOCTOU with clients that pinned their call descriptors before the
// race began. A held CD skips the pool pop, so the only thing standing
// between a warm caller and a drained service is the
// increment-then-check admission — which must still guarantee that no
// handler runs after soft Kill returns. The hard=true leg checks the
// blunter contract: once hard Kill returns, every new call on a held
// descriptor is refused.
func TestKillSoftHeldCDNoCallExecutesAfterReturn(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 50
	}
	var svcP atomic.Pointer[Service]
	var onDead atomic.Int64
	handler := func(ctx *Ctx, args *Args) {
		if svc := svcP.Load(); svc != nil && svc.state.Load() == svcDead {
			onDead.Add(1)
		}
	}
	for iter := 0; iter < iters; iter++ {
		hard := iter%2 == 1
		sys := NewSystemOptions(Options{Shards: 1})
		svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: handler})
		if err != nil {
			t.Fatal(err)
		}
		svcP.Store(svc)
		clients := make([]*Client, 8)
		for i := range clients {
			clients[i] = sys.NewClientWith(ClientOptions{})
			clients[i].Hold() // descriptor pinned before the race starts
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				var args Args
				<-start
				err := c.Call(svc.EP(), &args)
				if err != nil && !errors.Is(err, ErrKilled) && !errors.Is(err, ErrBadEntryPoint) {
					t.Error(err)
				}
			}(c)
		}
		close(start)
		if err := sys.Kill(svc.EP(), hard); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if !hard {
			if n := onDead.Load(); n != 0 {
				t.Fatalf("iter %d: %d held-CD calls executed on the dead service after soft Kill returned", iter, n)
			}
		}
		// After Kill returns — hard or soft — no new call may begin,
		// held descriptor or not.
		var args Args
		for _, c := range clients {
			if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrKilled) && !errors.Is(err, ErrBadEntryPoint) {
				t.Fatalf("iter %d (hard=%v): held call started after Kill returned: %v", iter, hard, err)
			}
		}
		onDead.Store(0)
	}
}

// TestExchangeHeldMidStream hot-swaps the handler under a stream of
// held-CD callers. Every call must run exactly the old or the new
// handler (the per-shard replica entry is published as one immutable
// pointer, so no torn svc/handler pairing), and any call that starts
// after Exchange returns must run the new one — Exchange republishes
// every shard's replica before returning.
func TestExchangeHeldMidStream(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 2})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "swap", Handler: func(ctx *Ctx, args *Args) { args[0] = 1 }})
	if err != nil {
		t.Fatal(err)
	}
	var exchanged atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientWith(ClientOptions{Shard: g % 2})
			c.Hold()
			var args Args
			for {
				select {
				case <-stop:
					return
				default:
				}
				sawExchange := exchanged.Load() // sampled before the call starts
				if err := c.Call(svc.EP(), &args); err != nil {
					t.Errorf("call during exchange: %v", err)
					return
				}
				switch v := args[0]; {
				case v != 1 && v != 2:
					t.Errorf("call ran a torn handler: args[0] = %d", v)
					return
				case sawExchange && v != 2:
					t.Errorf("call started after Exchange returned but ran the old handler")
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	if err := sys.Exchange(svc.EP(), func(ctx *Ctx, args *Args) { args[0] = 2 }); err != nil {
		t.Fatal(err)
	}
	exchanged.Store(true)
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestCloseWithOutstandingHeldCDs: clients holding descriptors do not
// impede Close — the drain joins the async workers and returns even
// though the held CDs are never coming back to the pool. Held
// synchronous calls keep working after Close, and the eventual stale
// Releases account the descriptors away without touching the pool.
func TestCloseWithOutstandingHeldCDs(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, 4)
	var args Args
	for i := range clients {
		clients[i] = sys.NewClientWith(ClientOptions{Shard: i % 2})
		if err := clients[i].Call(svc.EP(), &args); err != nil { // pins a CD
			t.Fatal(err)
		}
		if err := clients[i].AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	sys.Close() // must not wait for the held descriptors
	for _, st := range sys.Stats() {
		if st.AsyncWorkers != 0 || st.AsyncQueueDepth != 0 {
			t.Fatalf("shard %d did not drain with held CDs outstanding: %+v", st.Shard, st)
		}
		if st.HeldCDs != 2 {
			t.Fatalf("shard %d HeldCDs = %d across Close, want 2", st.Shard, st.HeldCDs)
		}
	}
	for _, c := range clients {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatalf("held sync call after Close: %v", err)
		}
		c.Release()
	}
	for _, st := range sys.Stats() {
		if st.HeldCDs != 0 {
			t.Fatalf("shard %d HeldCDs = %d after Releases", st.Shard, st.HeldCDs)
		}
	}
	// The descriptors were dropped, not repooled; their stripes are still
	// linked and balanced.
	if n, calls := svc.inFlightTotal(), svc.Calls(); n != 0 || calls != 8 {
		t.Fatalf("across Close: inFlightTotal = %d, Calls = %d; want 0, 8", n, calls)
	}
}

// TestKillSoftDrainsQueuedAsync is the queued-async-survives-kill
// scenario: requests accepted into a shard's async queue before the
// kill must all execute before Kill returns — previously the drain only
// counted executing calls, so Kill could return while queued requests
// later ran on the dead service. The unbuffered done channel parks the
// worker between requests, deterministically opening that window on the
// old code.
func TestKillSoftDrainsQueuedAsync(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	sys.shards[0].maxWorkers = 1 // single worker: requests queue behind it

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var executed, afterKill atomic.Int64
	var killReturned atomic.Bool
	svc, err := sys.Bind(ServiceConfig{Name: "drain", Handler: func(ctx *Ctx, args *Args) {
		started <- struct{}{}
		<-gate
		if killReturned.Load() {
			afterKill.Add(1)
		}
		executed.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	done := make(chan struct{}) // unbuffered: worker parks between requests
	const n = 5
	for i := 0; i < n; i++ {
		var args Args
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
			t.Fatal(err)
		}
	}
	<-started // first request is executing; the rest sit in the queue

	killDone := make(chan struct{})
	go func() {
		if err := sys.Kill(svc.EP(), false); err != nil {
			t.Error(err)
		}
		killReturned.Store(true)
		close(killDone)
	}()
	waitState(t, svc)

	// New calls are refused the moment the kill is published...
	var args Args
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrKilled) {
		t.Fatalf("call during drain: %v", err)
	}
	if err := c.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrKilled) {
		t.Fatalf("async call during drain: %v", err)
	}

	// ...while the accepted requests drain; collect their completions
	// slowly so the worker parks with the queue non-empty.
	go func() {
		for i := 0; i < n; i++ {
			time.Sleep(time.Millisecond)
			<-done
		}
	}()
	close(gate)
	<-killDone
	if got := executed.Load(); got != n {
		t.Fatalf("executed %d of %d accepted async requests", got, n)
	}
	if got := afterKill.Load(); got != 0 {
		t.Fatalf("%d queued requests executed after soft Kill returned", got)
	}
	if svc.AsyncCalls() != n {
		t.Fatalf("AsyncCalls = %d", svc.AsyncCalls())
	}
}

// TestKillHardDiscardsQueuedAsync: a hard kill marks the service dead
// at once; queued requests are dropped (with their completion
// notifications still delivered) and counted as backouts.
func TestKillHardDiscardsQueuedAsync(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	sys.shards[0].maxWorkers = 1

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var executed atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "hard", Handler: func(ctx *Ctx, args *Args) {
		started <- struct{}{}
		<-gate
		executed.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	done := make(chan struct{}, 8)
	const n = 4
	for i := 0; i < n; i++ {
		var args Args
		if err := asyncOne(c, svc.EP(), &args, done, 0); err != nil {
			t.Fatal(err)
		}
	}
	<-started // one executing, n-1 queued
	if err := sys.Kill(svc.EP(), true); err != nil {
		t.Fatal(err)
	}
	close(gate)
	for i := 0; i < n; i++ {
		<-done
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("executed = %d, want only the already-running request", got)
	}
	if got := svc.KilledBackouts(); got != n-1 {
		t.Fatalf("KilledBackouts = %d, want %d discarded queued requests", got, n-1)
	}
}

// TestAsyncBackpressure: with the queue full and the worker pool
// saturated, submission fails with ErrBackpressure after a bounded
// wait instead of blocking — and Close still drains cleanly afterwards.
func TestAsyncBackpressure(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	sh := &sys.shards[0]
	sh.maxWorkers = 1
	testRing(&sh.lanes[0].ring, 2) // the smallest ring (one-slot rings cannot detect fullness)
	sh.submitWait = time.Millisecond

	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		started <- struct{}{}
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.AsyncCall(svc.EP(), &args); err != nil { // worker takes it
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ { // fills the two-slot ring
		if err := c.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	begin := time.Now()
	if err := c.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overload submission: %v", err)
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Fatalf("backpressure rejection took %v, want a bounded wait", waited)
	}
	st := sys.Stats()[0]
	if st.BackpressureRejects != 1 {
		t.Fatalf("BackpressureRejects = %d", st.BackpressureRejects)
	}
	if st.AsyncQueueDepth != 2 || st.AsyncQueueCap != 2 {
		t.Fatalf("queue stats = %+v", st)
	}
	// The rejected request was never admitted: only the three accepted
	// ones count, and the soft-kill drain must not wait for a fourth.
	if svc.AsyncCalls() != 3 {
		t.Fatalf("AsyncCalls = %d", svc.AsyncCalls())
	}
	close(gate)
	sys.Close() // must not deadlock on the formerly-full queue
	if got := sys.Stats()[0].AsyncWorkers; got != 0 {
		t.Fatalf("AsyncWorkers = %d after Close", got)
	}
}

// TestCloseTimeoutWithStuckHandler: CloseTimeout gives up on a handler
// that never returns and reports ErrDrainTimeout instead of hanging.
func TestCloseTimeoutWithStuckHandler(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "stuck", Handler: func(ctx *Ctx, args *Args) {
		started <- struct{}{}
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	if err := c.AsyncCall(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := sys.CloseTimeout(5 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("CloseTimeout = %v, want ErrDrainTimeout", err)
	}
	close(gate) // let the worker finish and exit in the background
	deadline := time.Now().Add(time.Second)
	for sys.Stats()[0].AsyncWorkers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never exited after the stuck handler unblocked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentCallsAsyncAndClose races synchronous and asynchronous
// traffic against Close: no submission may deadlock or panic, async
// fails with ErrClosed (or bounded ErrBackpressure) once the drain
// begins, and synchronous calls keep working throughout.
func TestConcurrentCallsAsyncAndClose(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientWith(ClientOptions{Shard: g % 2})
			var args Args
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Call(svc.EP(), &args); err != nil {
					t.Errorf("sync call: %v", err)
					return
				}
				if err := c.AsyncCall(svc.EP(), &args); err != nil &&
					!errors.Is(err, ErrClosed) && !errors.Is(err, ErrBackpressure) {
					t.Errorf("async call: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	sys.Close()
	close(stop)
	wg.Wait()
	for _, st := range sys.Stats() {
		if st.AsyncWorkers != 0 {
			t.Fatalf("shard %d: %d workers alive after Close", st.Shard, st.AsyncWorkers)
		}
		if st.AsyncQueueDepth != 0 {
			t.Fatalf("shard %d: %d requests stranded in queue after Close", st.Shard, st.AsyncQueueDepth)
		}
	}
	var args Args
	if err := sys.NewClientWith(ClientOptions{Shard: -1}).AsyncCall(svc.EP(), &args); !errors.Is(err, ErrClosed) {
		t.Fatalf("async after close: %v", err)
	}
}

// TestRingSubmitCloseKillStress races single and batched submissions
// against a soft Kill and a concurrent Close on the ring path, on one
// lane and on three, half of the producers attaching an arena payload to
// every request. The invariants: no submission deadlocks or panics,
// rejections carry only the documented errors, a flush Close cuts reports
// the prefix the ring accepted and fails the tail with ErrClosed, and
// every request counted accepted executes exactly once — soft Kill and
// Close both drain accepted work, so when the dust settles accepted ==
// executed == the asynchronous admission count, nothing is in flight or
// queued and no lease is out. Every even iteration runs the soft Kill;
// every fourth, an odd one (a soft Kill would sit out the stall), instead
// stalls a producer between its ticket and its publish until Close has
// closed the ring: Close must not return before that ticket has been
// published and executed.
func TestRingSubmitCloseKillStress(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 6
	}
	const flush = 8
	var cuts atomic.Int64 // flushes Close cut mid-batch, over every iteration
	for iter := 0; iter < iters; iter++ {
		lanes := 1 + 2*(iter/4%2) // four iterations on one lane, four on three, ...
		// The stalled producer (below) gets a system of one shard: Close
		// closes shards in turn, and waits on the first behind the stall.
		stallIter := iter%4 == 1
		shards := 2
		if stallIter {
			shards = 1
		}
		sys := NewSystemOptions(Options{Shards: shards, Lanes: lanes})
		var executed atomic.Int64
		svc, err := sys.Bind(ServiceConfig{Name: "stress", Handler: func(ctx *Ctx, args *Args) {
			executed.Add(1)
		}})
		if err != nil {
			t.Fatal(err)
		}
		// The stalled producer: the first publish to find stall armed parks
		// between its ticket CAS and its sequence store until released.
		var stall atomic.Bool
		stalled, release := make(chan struct{}), make(chan struct{})
		if stallIter {
			stall.Store(true)
			sys.InjectFault(faultSiteRingPublish, func() error {
				if stall.CompareAndSwap(true, false) {
					close(stalled)
					<-release
				}
				return nil
			})
		}
		var accepted atomic.Int64
		flowing := make(chan struct{}) // closed by the producer that takes accepted past 100
		var flowOnce sync.Once
		accept := func(n int) {
			if accepted.Add(int64(n)) >= 100 {
				flowOnce.Do(func() { close(flowing) })
			}
		}
		documented := func(err error) bool {
			return errors.Is(err, ErrKilled) || errors.Is(err, ErrClosed) || errors.Is(err, ErrBackpressure) ||
				errors.Is(err, ErrShed) || errors.Is(err, ErrBadEntryPoint)
		}
		start := make(chan struct{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := sys.NewClientWith(ClientOptions{Shard: g % shards, Lane: Lane(1 + g%3)})
				b := c.NewBatch(svc.EP(), flush)
				// stage readies one request, every second producer's with a payload.
				stage := func(args *Args) bool {
					*args = Args{}
					if g/2%2 == 0 {
						return true
					}
					ref, _, err := c.AllocPayload(64)
					if err != nil {
						t.Errorf("AllocPayload: %v", err)
						return false
					}
					args.AttachPayload(ref)
					return true
				}
				var args Args
				<-start
				for {
					select {
					case <-stop:
						return
					default:
					}
					if g%2 == 0 {
						if !stage(&args) {
							return
						}
						if err := c.AsyncCall(svc.EP(), &args); err == nil {
							accept(1)
						} else if !documented(err) {
							t.Errorf("async: %v", err)
							return
						}
						continue
					}
					for i := 0; i < flush; i++ {
						if !stage(&args) {
							return
						}
						b.Add(&args)
					}
					n, err := b.Flush()
					accept(n)
					switch {
					case err == nil && n != flush, err != nil && n == flush, n > flush:
						t.Errorf("batch: Flush = (%d, %v) of %d staged", n, err, flush)
						return
					case err != nil && !documented(err):
						t.Errorf("batch: %v", err)
						return
					case n > 0 && errors.Is(err, ErrClosed):
						cuts.Add(1) // cut mid-flush: the prefix is reported, the tail refused
					}
				}
			}(g)
		}
		close(start)
		if !stallIter {
			select {
			case <-flowing:
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d (%d lanes): %d requests accepted in 10 s, want 100 before the kill and the close", iter, lanes, accepted.Load())
			}
		}
		if iter%2 == 0 {
			// Soft kill mid-traffic: drains every accepted request.
			if err := sys.Kill(svc.EP(), false); err != nil {
				t.Fatal(err)
			}
		}
		if stallIter {
			<-stalled
			closed := make(chan struct{})
			go func() {
				sys.Close()
				close(closed)
			}()
			waitCond(t, 5*time.Second, "Close to close every ring", func() bool {
				for i := range sys.shards {
					for l := range sys.shards[i].lanes {
						if !sys.shards[i].lanes[l].ring.closed() {
							return false
						}
					}
				}
				return true
			})
			select {
			case <-closed:
				t.Fatalf("iter %d: Close returned with a claimed ticket unpublished", iter)
			case <-time.After(2 * time.Millisecond):
			}
			close(release)
			<-closed
		} else {
			sys.Close()
		}
		atClose := executed.Load()
		close(stop)
		wg.Wait()
		if got := executed.Load(); got != atClose {
			t.Fatalf("iter %d: %d requests executed after Close returned", iter, got-atClose)
		}
		if got, want := executed.Load(), accepted.Load(); got != want {
			t.Fatalf("iter %d: executed %d of %d accepted requests", iter, got, want)
		}
		if got, want := svc.AsyncCalls(), accepted.Load(); got != want {
			t.Fatalf("iter %d: asyncAdm = %d with %d accepted: a refused tail was not taken back", iter, got, want)
		}
		if n := svc.inFlightTotal(); n != 0 {
			t.Fatalf("iter %d: inFlightTotal = %d", iter, n)
		}
		for _, st := range sys.Stats() {
			if st.AsyncWorkers != 0 || st.AsyncQueueDepth != 0 || st.LeasesActive != 0 {
				t.Fatalf("iter %d (%d lanes): shard %d left workers=%d depth=%d leases=%d",
					iter, lanes, st.Shard, st.AsyncWorkers, st.AsyncQueueDepth, st.LeasesActive)
			}
		}
	}
	t.Logf("%d flushes cut mid-batch by Close in %d iterations", cuts.Load(), iters)
}

// TestSoftKillWaitsWithoutNotification: no call announces its completion
// to a draining Kill — the drain polls the in-flight sum — so wherever a
// call is when a soft Kill starts (a held Call in its handler, a pooled
// call, an asynchronous request still queued, the handler of an orphaned
// deadline call), Kill does not return before that call has finished and
// returns within a few polls after it. A poll is killPollInterval on a
// busy process and about a millisecond on an idle one (Go rounds a shorter
// sleep up to its netpoller's millisecond; E26), and the last completion
// falls anywhere inside one, so the statement tested is that the median of
// five tries is inside two of the latter: host noise moves a try or two, a
// drain that needs a second poll or a longer one moves them all.
func TestSoftKillWaitsWithoutNotification(t *testing.T) {
	const bound = 2 * time.Millisecond
	for _, place := range []string{"held Call", "CallPooled", "queued async", "orphaned deadline"} {
		t.Run(place, func(t *testing.T) {
			leakCheck(t)
			late := make([]time.Duration, 5)
			for try := range late {
				late[try] = softKillLateness(t, place)
			}
			slices.Sort(late)
			t.Logf("Kill returned %v after the last completion (poll interval %v)", late, killPollInterval)
			if mid := late[len(late)/2]; mid > bound && !raceEnabled {
				t.Errorf("Kill returned %v after the last completion (median of %v), want within %v", mid, late, bound)
			}
		})
	}
}

// softKillLateness puts one call of a fresh service in place, starts a
// soft Kill, checks that it waits, lets the call finish, and reports how
// long after the handler's return Kill returned.
func softKillLateness(t *testing.T, place string) time.Duration {
	t.Helper()
	sys := NewSystemOptions(Options{Shards: 1, MaxWorkers: 1, WatchdogInterval: 200 * time.Microsecond})
	defer sys.Close()
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	var finished atomic.Int64 // when the victim's handler returned
	var ran atomic.Int64
	victim, err := sys.Bind(ServiceConfig{Name: "victim", Handler: func(ctx *Ctx, args *Args) {
		ran.Add(1)
		if place != "queued async" {
			entered <- struct{}{}
			<-gate
		}
		finished.Store(time.Now().UnixNano())
	}})
	if err != nil {
		t.Fatal(err)
	}
	// blocker occupies the one worker so that the victim's request stays queued.
	blocker, err := sys.Bind(ServiceConfig{Name: "blocker", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	callDone := make(chan error, 1)
	var args Args
	switch place {
	case "held Call":
		go func() { callDone <- c.Call(victim.EP(), &args) }()
	case "CallPooled":
		go func() { callDone <- c.CallPooled(victim.EP(), &args) }()
	case "queued async":
		if err := c.AsyncCall(blocker.EP(), &args); err != nil {
			t.Fatal(err)
		}
	case "orphaned deadline":
		callDone <- nil
		if err := c.CallDeadline(victim.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("CallDeadline on a blocked handler = %v, want ErrDeadline", err)
		}
	}
	<-entered // the victim's handler; for the queued request, the blocker's
	if place == "queued async" {
		callDone <- c.AsyncCall(victim.EP(), &args)
	}
	if n := victim.inFlightTotal(); n != 1 {
		t.Fatalf("inFlightTotal = %d with the call in place, want 1", n)
	}
	killed := make(chan time.Time, 1)
	go func() {
		if err := sys.Kill(victim.EP(), false); err != nil {
			t.Errorf("Kill: %v", err)
		}
		killed <- time.Now()
	}()
	waitState(t, victim)
	select {
	case <-killed:
		t.Fatal("soft Kill returned with the call still in flight")
	case <-time.After(5 * killPollInterval):
	}
	close(gate)
	var at time.Time
	select {
	case at = <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("soft Kill never returned after the last completion")
	}
	if err := <-callDone; err != nil {
		t.Fatalf("the call admitted before the kill = %v, want it to finish normally", err)
	}
	late := at.Sub(time.Unix(0, finished.Load()))
	if late < 0 {
		t.Fatalf("Kill returned %v before the handler did", -late)
	}
	if err := c.Call(victim.EP(), &args); !errors.Is(err, ErrBadEntryPoint) {
		t.Errorf("Call after Kill returned = %v, want ErrBadEntryPoint", err)
	}
	if n := ran.Load(); n != 1 || victim.inFlightTotal() != 0 {
		t.Errorf("victim ran %d times, inFlightTotal = %d; want 1 and 0", n, victim.inFlightTotal())
	}
	waitCond(t, 5*time.Second, "quarantine to end", func() bool { return sys.Stats()[0].QuarantinedCDs == 0 })
	return late
}

// TestPerSystemClientRoundRobin: shard placement is round-robin within
// one System, unskewed by clients created on other Systems (the bind
// counter used to be a package-level global).
func TestPerSystemClientRoundRobin(t *testing.T) {
	a := NewSystemOptions(Options{Shards: 4})
	b := NewSystemOptions(Options{Shards: 4})
	for i := 0; i < 4; i++ {
		_ = b.NewClientWith(ClientOptions{Shard: -1}) // must not perturb a's placement
		if got, want := a.NewClientWith(ClientOptions{Shard: -1}).Shard(), (i+1)%4; got != want {
			t.Fatalf("client %d placed on shard %d, want %d", i, got, want)
		}
	}
}

// TestBatchFlushKillRaceWithInjectedFaults races Batch.Flush and
// AsyncCall traffic against soft and hard kills while the handler
// fault-injection site panics every few dispatches. The accounting
// invariant must hold through the storm: every accepted request is
// either dispatched exactly once (the handler site fires, panic or
// not) or — hard-kill iterations only — discarded from the queue with
// a KilledBackout. Soft kills additionally guarantee dispatched ==
// accepted: a soft kill drains injected faults like any other work.
func TestBatchFlushKillRaceWithInjectedFaults(t *testing.T) {
	iters := 20
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		hard := iter%2 == 1
		sys := NewSystemOptions(Options{Shards: 2})
		var dispatched atomic.Int64
		sys.InjectFault(faultSiteHandler, func() error {
			if dispatched.Add(1)%3 == 0 {
				panic("injected fault storm")
			}
			return nil
		})
		svc, err := sys.Bind(ServiceConfig{Name: "storm", Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64
		start := make(chan struct{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := sys.NewClientWith(ClientOptions{Shard: g % 2})
				b := c.NewBatch(svc.EP(), 8)
				var args Args
				<-start
				for {
					select {
					case <-stop:
						return
					default:
					}
					if g%2 == 0 {
						if err := c.AsyncCall(svc.EP(), &args); err == nil {
							accepted.Add(1)
						} else if !errors.Is(err, ErrKilled) && !errors.Is(err, ErrClosed) &&
							!errors.Is(err, ErrBackpressure) && !errors.Is(err, ErrBadEntryPoint) {
							t.Errorf("async: %v", err)
							return
						}
					} else {
						for i := 0; i < 4; i++ {
							b.Add(&args)
						}
						n, err := b.Flush()
						accepted.Add(int64(n))
						if err != nil && !errors.Is(err, ErrKilled) && !errors.Is(err, ErrClosed) &&
							!errors.Is(err, ErrBackpressure) && !errors.Is(err, ErrBadEntryPoint) {
							t.Errorf("batch: %v", err)
							return
						}
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(iter%3) * 100 * time.Microsecond)
		if err := sys.Kill(svc.EP(), hard); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		sys.Close()
		disp, acc, killed := dispatched.Load(), accepted.Load(), svc.KilledBackouts()
		if hard {
			// Hard kill: accepted = dispatched + discarded-from-queue.
			// KilledBackouts also counts admission-race backouts (never
			// accepted), so it bounds the discard count from above.
			if disp > acc {
				t.Fatalf("iter %d (hard): dispatched %d > accepted %d", iter, disp, acc)
			}
			if disp+killed < acc {
				t.Fatalf("iter %d (hard): dispatched %d + backouts %d < accepted %d",
					iter, disp, killed, acc)
			}
		} else if disp != acc {
			t.Fatalf("iter %d (soft): dispatched %d of %d accepted", iter, disp, acc)
		}
		for _, st := range sys.Stats() {
			if st.AsyncWorkers != 0 || st.AsyncQueueDepth != 0 {
				t.Fatalf("iter %d: shard %d left workers=%d depth=%d",
					iter, st.Shard, st.AsyncWorkers, st.AsyncQueueDepth)
			}
		}
	}
}
