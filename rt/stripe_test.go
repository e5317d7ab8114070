package rt

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the descriptor-owned call stripes (callStripe,
// callDesc.stripeFor): counters follow the descriptor, and soft Kill
// still sees every admission.

// needTwoPs raises GOMAXPROCS to two for the test if it is lower: the
// races below are between a caller's admission and a kill's drain, and
// on one P they only interleave at preemption points.
func needTwoPs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestKillSoftHeldCallersOneShard races a soft Kill against callers
// that all hold descriptors on ONE shard and call in a loop, so that
// calls are in flight on several descriptor-owned stripes when the
// kill's drain sums them. Once Kill returns no handler may be entered,
// and at quiescence the books balance: every call that was admitted and
// not backed out completed and was counted; every back-out surfaced as
// ErrKilled.
func TestKillSoftHeldCallersOneShard(t *testing.T) {
	needTwoPs(t)
	iters := 250
	if testing.Short() {
		iters = 50
	}
	const callers = 4
	for iter := 0; iter < iters; iter++ {
		sys := NewSystemShards(1)
		var killReturned atomic.Bool
		var late atomic.Int64
		svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: func(ctx *Ctx, args *Args) {
			if killReturned.Load() {
				late.Add(1)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]*Client, callers)
		for i := range clients {
			clients[i] = sys.NewClientOnShard(0)
			clients[i].Hold()
		}
		var ok, killed atomic.Int64
		var wg sync.WaitGroup
		var started sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			started.Add(1)
			go func(i int, c *Client) {
				defer wg.Done()
				var args Args
				// Half the callers are warm (stripe cached) when the kill
				// lands, half take the miss path against it.
				if i%2 == 0 {
					if err := c.Call(svc.EP(), &args); err != nil {
						t.Error(err)
					} else {
						ok.Add(1)
					}
				}
				started.Done()
				for n := 0; ; n++ {
					if n%64 == 63 {
						runtime.Gosched() // more callers than Ps: let the killer on
					}
					err := c.Call(svc.EP(), &args)
					switch {
					case err == nil:
						ok.Add(1)
						continue
					case errors.Is(err, ErrKilled):
						killed.Add(1)
					case errors.Is(err, ErrBadEntryPoint):
					default:
						t.Error(err)
					}
					return
				}
			}(i, c)
		}
		started.Wait()
		if err := sys.Kill(svc.EP(), false); err != nil {
			t.Fatal(err)
		}
		killReturned.Store(true)
		wg.Wait()
		if n := late.Load(); n != 0 {
			t.Fatalf("iter %d: %d handler entries after soft Kill returned", iter, n)
		}
		admitted := svc.sumStripes(func(st *callStripe) int64 { return st.admitted.Load() })
		completed := svc.sumStripes(func(st *callStripe) int64 { return st.completed.Load() })
		if admitted != ok.Load() || completed != ok.Load() || svc.Calls() != ok.Load() {
			t.Fatalf("iter %d: admitted %d, completed %d, Calls %d; want all %d (the calls that succeeded)",
				iter, admitted, completed, svc.Calls(), ok.Load())
		}
		if b := svc.KilledBackouts(); b > killed.Load() {
			t.Fatalf("iter %d: KilledBackouts = %d but only %d callers saw ErrKilled", iter, b, killed.Load())
		}
		if n := svc.inFlightTotal(); n != 0 {
			t.Fatalf("iter %d: inFlightTotal = %d at quiescence", iter, n)
		}
		for _, c := range clients {
			c.Release()
		}
		sys.Close()
	}
}

// TestStripeCountersExact walks one descriptor through every way its
// stripes get used — two owners in turn, two services in alternation —
// and mixes in the paths that account on the shard's own stripe
// (CallPooled, Ctx.Call, Upcall). The public sums are exact, and no
// path mints a second stripe for a (descriptor, service) pair.
func TestStripeCountersExact(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	var denied atomic.Uint32
	denied.Store(^uint32(0)) // nobody yet; 0 is Upcall's program
	a, err := sys.Bind(ServiceConfig{
		Name:      "a",
		Handler:   func(ctx *Ctx, args *Args) { args[0]++ },
		Authorize: func(p uint32) bool { return p != denied.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := sys.Bind(ServiceConfig{Name: "nest", Handler: func(ctx *Ctx, args *Args) {
		if err := ctx.Call(a.EP(), args); err != nil {
			t.Error(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	call := func(f func() error, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var args Args

	c1 := sys.NewClientOnShard(0)
	call(func() error { return c1.Call(a.EP(), &args) }, 10)
	cd := c1.held
	c1.Release()
	c2 := sys.NewClientOnShard(0)
	c2.Hold()
	if c2.held != cd {
		t.Fatal("setup: the second client did not pick up the released descriptor")
	}
	call(func() error { return c2.Call(a.EP(), &args) }, 7)
	if got := a.Calls(); got != 17 {
		t.Fatalf("Calls(a) = %d across Release and re-Hold, want 17", got)
	}
	for i := 0; i < 5; i++ { // every call misses the one-entry cache
		call(func() error { return c2.Call(b.EP(), &args) }, 1)
		call(func() error { return c2.Call(a.EP(), &args) }, 1)
	}
	if len(a.stripes) != 1 || len(b.stripes) != 1 || len(cd.stripes) != 2 {
		t.Fatalf("one descriptor, two services: %d + %d stripes linked, %d on the descriptor; want 1 + 1, 2",
			len(a.stripes), len(b.stripes), len(cd.stripes))
	}
	call(func() error { return c2.CallPooled(a.EP(), &args) }, 3)
	call(func() error { return sys.Upcall(0, a.EP(), &args) }, 2)
	call(func() error { return c2.Call(nest.EP(), &args) }, 4)
	call(func() error { return c2.CallDeadline(a.EP(), &args, time.Minute) }, 6)
	if got, want := a.Calls(), int64(17+5+3+2+4+6); got != want {
		t.Fatalf("Calls(a) = %d, want %d", got, want)
	}
	if got := b.Calls(); got != 5 {
		t.Fatalf("Calls(b) = %d, want 5", got)
	}
	if got := a.perShard[0].stripe.calls(); got != 3+2+4 {
		t.Fatalf("the shard's own stripe counted %d calls, want the 9 pooled ones", got)
	}

	c3 := sys.NewClientOnShard(0)
	denied.Store(c3.Program())
	for _, f := range []func() error{
		func() error { return c3.Call(a.EP(), &args) },
		func() error { return c3.Call(a.EP(), &args) },
		func() error { return c3.CallPooled(a.EP(), &args) },
	} {
		if err := f(); !errors.Is(err, ErrPermissionDenied) {
			t.Fatalf("denied client: %v", err)
		}
	}
	if got := a.AuthFailures(); got != 3 {
		t.Fatalf("AuthFailures(a) = %d, want 3", got)
	}
	if got, want := a.Calls(), int64(17+5+3+2+4+6); got != want {
		t.Fatalf("denied calls moved Calls(a) to %d, want %d", got, want)
	}
	c2.Release()
	c3.Release()
	for _, svc := range []*Service{a, b, nest} {
		if n := svc.inFlightTotal(); n != 0 {
			t.Fatalf("%s: inFlightTotal = %d at quiescence", svc.Name(), n)
		}
	}
}

// TestStripeIdentityEveryExit drives every way a call can end through
// every synchronous entry point, concurrently, and checks the two
// identities the derived call counter rests on: at quiescence every
// stripe has admitted == completed (asynchronous completions count
// apart), and Service.Calls is exactly the number of synchronous handler
// invocations that returned normally — panics, authorization denials,
// deadline expiries (whose orphaned handler still returns and still
// counts), queue-deadline expiries and hard-kill discards (which run no
// handler) all leave it alone.
func TestStripeIdentityEveryExit(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 2, WatchdogInterval: 200 * time.Microsecond})
	defer sys.Close()
	const (
		opNormal = iota
		opPanic
		opSlow
	)
	var returned, asyncRan atomic.Int64 // handler invocations that returned normally, by kind
	var deniedProg atomic.Uint32
	svc, err := sys.Bind(ServiceConfig{
		Name: "mixed",
		Handler: func(ctx *Ctx, args *Args) {
			switch args[0] {
			case opPanic:
				panic("mixed")
			case opSlow:
				time.Sleep(2 * time.Millisecond)
			}
			if ctx.IsAsync() {
				asyncRan.Add(1)
			} else {
				returned.Add(1)
			}
		},
		Authorize: func(p uint32) bool { return p != deniedProg.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := sys.Bind(ServiceConfig{Name: "nest", Handler: func(ctx *Ctx, args *Args) {
		_ = ctx.Call(svc.EP(), args) // a fault in the nested call is the nested call's
	}})
	if err != nil {
		t.Fatal(err)
	}
	deniedClient := sys.NewClientOnShard(1)
	deniedProg.Store(deniedClient.Program())

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientOnShard(g % 2)
			defer c.Release()
			for i := 0; i < 400; i++ {
				args := Args{uint64(i % 7 % 2)} // mostly normal, some panics
				var err error
				switch (g + i) % 6 {
				case 0:
					err = c.Call(svc.EP(), &args)
				case 1:
					err = c.CallPooled(svc.EP(), &args)
				case 2:
					err = c.Call(nest.EP(), &args)
				case 3:
					err = sys.Upcall(g%2, svc.EP(), &args)
				case 4:
					err = c.CallDeadline(svc.EP(), &args, time.Second)
				case 5:
					if i%50 == 5 { // an expiry: the orphaned handler returns later
						args[0] = opSlow
						err = c.CallDeadline(svc.EP(), &args, 100*time.Microsecond)
					} else {
						err = c.AsyncCall(svc.EP(), &args)
					}
				}
				if err != nil && !errors.Is(err, ErrServerFault) && !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrBackpressure) {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer deniedClient.Release()
		for i := 0; i < 300; i++ {
			var args Args
			call := deniedClient.Call
			if i%2 == 1 {
				call = deniedClient.CallPooled
			}
			if err := call(svc.EP(), &args); !errors.Is(err, ErrPermissionDenied) {
				t.Errorf("denied client: %v", err)
			}
		}
	}()
	wg.Wait()
	waitCond(t, 5*time.Second, "orphaned handlers and queued requests to finish", func() bool {
		return svc.inFlightTotal() == 0 && nest.inFlightTotal() == 0 && sys.Stats()[0].QuarantinedCDs+sys.Stats()[1].QuarantinedCDs == 0
	})
	for _, s := range []*Service{svc, nest} {
		s.sumStripes(func(st *callStripe) int64 {
			if ad, co := st.admitted.Load(), st.completed.Load(); ad != co {
				t.Errorf("%s: a stripe reads admitted %d, completed %d at quiescence", s.Name(), ad, co)
			}
			return 0
		})
	}
	if got, want := svc.Calls(), returned.Load(); got != want {
		t.Fatalf("Calls = %d, want %d: the synchronous handler invocations that returned normally", got, want)
	}
	if got := svc.AuthFailures(); got != 300 {
		t.Fatalf("AuthFailures = %d, want 300", got)
	}
}

// TestStripeExitsWithoutHandler: a request that expires in the queue and
// one a hard kill discards complete without running a handler; neither
// counts as a call, on any counter, and both leave the in-flight sum at
// zero.
func TestStripeExitsWithoutHandler(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, MaxWorkers: 1})
	defer sys.Close()
	var ran atomic.Int64
	count := func(ctx *Ctx, args *Args) { ran.Add(1) }
	expiring, err := sys.Bind(ServiceConfig{Name: "expiring", Handler: count})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := sys.Bind(ServiceConfig{Name: "doomed", Handler: count})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	blocker, err := sys.Bind(ServiceConfig{Name: "blocker", Handler: func(ctx *Ctx, args *Args) {
		close(entered)
		<-gate
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	if err := c.AsyncCall(blocker.EP(), &Args{}); err != nil { // the one worker is busy from here
		close(gate)
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < 8; i++ {
		if err := c.AsyncCallNotifyDeadline(expiring.EP(), &Args{}, nil, time.Microsecond); err != nil {
			t.Error(err)
		}
		if err := c.AsyncCall(doomed.EP(), &Args{}); err != nil {
			t.Error(err)
		}
	}
	time.Sleep(time.Millisecond) // the queue deadlines pass
	if err := sys.Kill(doomed.EP(), true); err != nil {
		t.Error(err)
	}
	close(gate)
	waitCond(t, 5*time.Second, "the queue to drain", func() bool {
		return expiring.inFlightTotal() == 0 && doomed.inFlightTotal() == 0 && blocker.inFlightTotal() == 0
	})
	if ran.Load() != 0 || expiring.Calls() != 0 || doomed.Calls() != 0 {
		t.Fatalf("%d handlers ran; Calls = %d and %d; want none of either", ran.Load(), expiring.Calls(), doomed.Calls())
	}
	if st := sys.Stats()[0]; st.DeadlineExpirations != 8 || doomed.KilledBackouts() != 8 {
		t.Fatalf("DeadlineExpirations = %d, KilledBackouts = %d; want 8, 8", st.DeadlineExpirations, doomed.KilledBackouts())
	}
}

// TestKillWaitsForCallOnCondemnedDescriptor: the scavenger condemns a
// dead client's descriptor while a plain call is still running on it.
// Nothing of the client's points at the descriptor any more, but the
// call is counted on the descriptor's stripe, the stripe is still
// linked in the service, and soft Kill waits for it.
func TestKillWaitsForCallOnCondemnedDescriptor(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	entered, gate := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		close(entered)
		<-gate
		returned.Store(true)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	callDone := make(chan error, 1)
	go func() {
		var args Args
		callDone <- c.Call(svc.EP(), &args)
	}()
	<-entered
	c.Abandon()
	waitCond(t, 5*time.Second, "the scavenger condemning the busy descriptor", func() bool {
		return sys.Stats()[0].ScavengedCDs == 1
	})
	killDone := make(chan error, 1)
	go func() { killDone <- sys.Kill(svc.EP(), false) }()
	waitState(t, svc)
	select {
	case <-killDone:
		t.Fatal("soft Kill returned with a call still running on a condemned descriptor")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-killDone; err != nil {
		t.Fatal(err)
	}
	if !returned.Load() {
		t.Fatal("soft Kill returned before the handler did")
	}
	if err := <-callDone; err != nil {
		t.Fatalf("the in-flight call: %v", err)
	}
	if n := svc.inFlightTotal(); n != 0 {
		t.Fatalf("inFlightTotal = %d after the drain", n)
	}
}

// TestStripeCacheDropsDeadService: a descriptor's stripe list must not
// keep killed services reachable. The next miss after a kill drops the
// dead entry, and the Service becomes collectable.
func TestStripeCacheDropsDeadService(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	bind := func(name string) *Service {
		svc, err := sys.Bind(ServiceConfig{Name: name, Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	var args Args
	var collected atomic.Bool
	func() {
		a := bind("a")
		runtime.AddCleanup(a, func(f *atomic.Bool) { f.Store(true) }, &collected)
		if err := c.Call(a.EP(), &args); err != nil {
			t.Fatal(err)
		}
		if err := sys.Kill(a.EP(), false); err != nil {
			t.Fatal(err)
		}
		if c.held.stripeSvc != a {
			t.Fatal("setup: the killed service is not the cached entry")
		}
	}()
	b := bind("b")
	if err := c.Call(b.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if cd := c.held; cd.stripeSvc != b || len(cd.stripes) != 1 || cd.stripes[0].svc != b {
		t.Fatalf("after a call to a new service the descriptor still lists the dead one: cached %q, %d entries",
			cd.stripeSvc.Name(), len(cd.stripes))
	}
	waitCond(t, 10*time.Second, "collection of the killed Service", func() bool {
		runtime.GC()
		return collected.Load()
	})
}

// TestWarmHeldCallWritesNoShardLine pins the point of the stripes: a
// warm held Call allocates nothing and performs no read-modify-write on
// any (service, shard) counter line — held-only traffic leaves the
// shard's own stripe at zero. Alternating two services on one
// descriptor takes the miss path every call and still allocates
// nothing once both stripes exist.
func TestWarmHeldCallWritesNoShardLine(t *testing.T) {
	sys := NewSystemShards(2)
	defer sys.Close()
	bind := func(name string) *Service {
		svc, err := sys.Bind(ServiceConfig{Name: name, Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	a, b := bind("a"), bind("b")
	clients := []*Client{sys.NewClientOnShard(0), sys.NewClientOnShard(0), sys.NewClientOnShard(1)}
	var args Args
	for _, c := range clients {
		defer c.Release()
		for _, svc := range []*Service{a, b} {
			if err := c.Call(svc.EP(), &args); err != nil {
				t.Fatal(err)
			}
		}
	}
	report := func(what string, allocs float64) {
		t.Helper()
		if allocs == 0 {
			return
		}
		if raceEnabled {
			t.Logf("%s allocates %.1f objects/op under -race (report-only)", what, allocs)
		} else {
			t.Fatalf("%s allocates %.1f objects/op, want 0", what, allocs)
		}
	}
	c := clients[0]
	report("warm held call", testing.AllocsPerRun(200, func() {
		if err := c.Call(a.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}))
	report("held call alternating two services", testing.AllocsPerRun(200, func() {
		if err := c.Call(b.EP(), &args); err != nil {
			t.Fatal(err)
		}
		if err := c.Call(a.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}))
	for _, svc := range []*Service{a, b} {
		for i := range svc.perShard {
			st := &svc.perShard[i].stripe
			if ad, co, un := st.admitted.Load(), st.completed.Load(), st.unreturned.Load(); ad != 0 || co != 0 || un != 0 {
				t.Fatalf("%s: held-only traffic wrote shard %d's own stripe: admitted %d, completed %d, unreturned %d",
					svc.Name(), i, ad, co, un)
			}
		}
		if got := len(svc.stripes); got != len(clients) {
			t.Fatalf("%s: %d descriptor stripes linked, want one per held descriptor (%d)", svc.Name(), got, len(clients))
		}
	}
}
