package rt

import (
	"errors"
	"sync"
	"testing"
)

func TestCallRoundTrip(t *testing.T) {
	sys := NewSystem()
	svc, err := sys.Bind(ServiceConfig{Name: "echo", Handler: func(ctx *Ctx, args *Args) {
		for i := 0; i < NumArgWords-1; i++ {
			args[i] += 1000
		}
		args.SetRC(0)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	for i := 0; i < NumArgWords-1; i++ {
		args[i] = uint64(i)
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumArgWords-1; i++ {
		if args[i] != uint64(i)+1000 {
			t.Fatalf("arg %d = %d", i, args[i])
		}
	}
	if svc.Calls() != 1 {
		t.Fatalf("Calls = %d", svc.Calls())
	}
}

func TestOpFlagsHelpers(t *testing.T) {
	w := OpFlags(0xAABBCCDD, 0x11223344)
	if Op(w) != 0xAABBCCDD || Flags(w) != 0x11223344 {
		t.Fatal("packing broken")
	}
	var a Args
	a.SetOp(5, 6)
	if Op(a[OpFlagsWord]) != 5 || Flags(a[OpFlagsWord]) != 6 {
		t.Fatal("SetOp broken")
	}
	a.SetRC(77)
	if a.RC() != 77 {
		t.Fatal("RC broken")
	}
}

func TestBadEntryPoint(t *testing.T) {
	sys := NewSystem()
	c := sys.NewClient()
	var args Args
	if err := c.Call(999, &args); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Call(MaxEntryPoints+5, &args); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestWellKnownEPAndDuplicates(t *testing.T) {
	sys := NewSystem()
	h := func(ctx *Ctx, args *Args) {}
	svc, err := sys.Bind(ServiceConfig{Name: "a", Handler: h, EP: 7})
	if err != nil {
		t.Fatal(err)
	}
	if svc.EP() != 7 {
		t.Fatalf("EP = %d", svc.EP())
	}
	if _, err := sys.Bind(ServiceConfig{Name: "b", Handler: h, EP: 7}); err == nil {
		t.Fatal("duplicate EP accepted")
	}
	if _, err := sys.Bind(ServiceConfig{Name: "c", Handler: nil}); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestScratchIsRecycledWithinShard(t *testing.T) {
	sys := NewSystemShards(1)
	var seen [][]byte
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {
		s := ctx.Scratch()
		s[0] = 0xAB
		seen = append(seen, s)
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Two services share the shard's descriptor pool.
	svc2, err := sys.Bind(ServiceConfig{Name: "s2", Handler: func(ctx *Ctx, args *Args) {
		seen = append(seen, ctx.Scratch())
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(svc2.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if &seen[0][0] != &seen[1][0] {
		t.Fatal("successive calls to different services should serially share the scratch buffer")
	}
	if seen[1][0] != 0xAB {
		t.Fatal("scratch is recycled unzeroed by design")
	}
}

func TestAuthorization(t *testing.T) {
	sys := NewSystem()
	allowed := uint32(0)
	svc, err := sys.Bind(ServiceConfig{
		Name:      "secure",
		Handler:   func(ctx *Ctx, args *Args) { args.SetRC(0) },
		Authorize: func(p uint32) bool { return p == allowed },
	})
	if err != nil {
		t.Fatal(err)
	}
	good := sys.NewClient()
	allowed = good.Program()
	bad := sys.NewClient()
	var args Args
	if err := good.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := bad.Call(svc.EP(), &args); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("err = %v", err)
	}
	if svc.AuthFailures() != 1 {
		t.Fatalf("AuthFailures = %d", svc.AuthFailures())
	}
}

func TestAsyncCall(t *testing.T) {
	sys := NewSystem()
	done := make(chan struct{}, 8)
	var mu sync.Mutex
	var got []uint64
	svc, err := sys.Bind(ServiceConfig{Name: "prefetch", Handler: func(ctx *Ctx, args *Args) {
		if !ctx.IsAsync() {
			t.Error("expected async context")
		}
		mu.Lock()
		got = append(got, args[0])
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	for i := uint64(0); i < 5; i++ {
		var args Args
		args[0] = i
		if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		<-done
	}
	if len(got) != 5 {
		t.Fatalf("handled %d async calls", len(got))
	}
	if svc.AsyncCalls() != 5 {
		t.Fatalf("AsyncCalls = %d", svc.AsyncCalls())
	}
}

func TestUpcall(t *testing.T) {
	sys := NewSystemShards(2)
	hit := false
	svc, err := sys.Bind(ServiceConfig{Name: "dbg", Handler: func(ctx *Ctx, args *Args) {
		hit = true
		if ctx.CallerProgram != 0 {
			t.Error("upcalls carry no caller identity")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	var args Args
	if err := sys.Upcall(1, svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("upcall not delivered")
	}
}

func TestNestedCall(t *testing.T) {
	sys := NewSystemShards(1)
	inner, err := sys.Bind(ServiceConfig{Name: "inner", Handler: func(ctx *Ctx, args *Args) {
		args[0] *= 2
	}})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := sys.Bind(ServiceConfig{Name: "outer", Handler: func(ctx *Ctx, args *Args) {
		var in Args
		in[0] = args[0]
		if err := ctx.Call(inner.EP(), &in); err != nil {
			t.Error(err)
		}
		args[1] = in[0]
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	args[0] = 21
	if err := c.Call(outer.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[1] != 42 {
		t.Fatalf("nested result = %d", args[1])
	}
}

func TestInitHandlerOncePerShard(t *testing.T) {
	sys := NewSystemShards(2)
	var mu sync.Mutex
	inits, calls := 0, 0
	steady := func(ctx *Ctx, args *Args) {
		mu.Lock()
		calls++
		mu.Unlock()
	}
	svc, err := sys.Bind(ServiceConfig{
		Name:    "init",
		Handler: steady,
		InitHandler: func(ctx *Ctx, args *Args) {
			mu.Lock()
			inits++
			mu.Unlock()
			steady(ctx, args)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var args Args
	c0 := sys.NewClientOnShard(0)
	c1 := sys.NewClientOnShard(1)
	for i := 0; i < 3; i++ {
		if err := c0.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		if err := c1.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	if inits != 2 {
		t.Fatalf("inits = %d, want one per shard", inits)
	}
	if calls != 6 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestExchangeOnline(t *testing.T) {
	sys := NewSystem()
	svc, err := sys.Bind(ServiceConfig{Name: "x", Handler: func(ctx *Ctx, args *Args) { args[0] = 1 }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != 1 {
		t.Fatal("v1 did not run")
	}
	if err := sys.Exchange(svc.EP(), func(ctx *Ctx, args *Args) { args[0] = 2 }); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != 2 {
		t.Fatal("exchange did not take effect")
	}
	if err := sys.Exchange(999, func(ctx *Ctx, args *Args) {}); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatal("exchange of unbound EP accepted")
	}
}

func TestKillSoftAndHard(t *testing.T) {
	sys := NewSystem()
	h := func(ctx *Ctx, args *Args) {}
	soft, err := sys.Bind(ServiceConfig{Name: "soft", Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := sys.Bind(ServiceConfig{Name: "hard", Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	if err := sys.Kill(soft.EP(), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(soft.EP(), &args); !errors.Is(err, ErrBadEntryPoint) && !errors.Is(err, ErrKilled) {
		t.Fatalf("call to soft-killed ep: %v", err)
	}
	if err := sys.Kill(hard.EP(), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(hard.EP(), &args); !errors.Is(err, ErrBadEntryPoint) && !errors.Is(err, ErrKilled) {
		t.Fatalf("call to hard-killed ep: %v", err)
	}
	// EP is reusable after death.
	if _, err := sys.Bind(ServiceConfig{Name: "reuse", Handler: h, EP: hard.EP()}); err != nil {
		t.Fatalf("EP not reusable after hard kill: %v", err)
	}
	if err := sys.Kill(999, true); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatal("kill of unbound EP accepted")
	}
}

func TestNameRegistry(t *testing.T) {
	sys := NewSystem()
	svc, err := sys.Bind(ServiceConfig{Name: "bob", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("bob", svc.EP()); err != nil {
		t.Fatal(err)
	}
	ep, err := sys.Lookup("bob")
	if err != nil || ep != svc.EP() {
		t.Fatalf("lookup = %d, %v", ep, err)
	}
	if err := sys.Register("bob", 5); !errors.Is(err, ErrNameTaken) {
		t.Fatal("duplicate name accepted")
	}
	if _, err := sys.Lookup("ghost"); !errors.Is(err, ErrUnknownName) {
		t.Fatal("unknown name resolved")
	}
}

func TestConcurrentCallsAllShards(t *testing.T) {
	sys := NewSystem()
	svc, err := sys.Bind(ServiceConfig{Name: "cnt", Handler: func(ctx *Ctx, args *Args) {
		s := ctx.Scratch()
		for i := 0; i < 64; i++ {
			s[i] = byte(i)
		}
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const callsEach = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sys.NewClient()
			var args Args
			for i := 0; i < callsEach; i++ {
				if err := c.Call(svc.EP(), &args); err != nil {
					t.Error(err)
					return
				}
			}
			if args[0] != callsEach {
				t.Errorf("args[0] = %d", args[0])
			}
		}()
	}
	wg.Wait()
	if svc.Calls() != goroutines*callsEach {
		t.Fatalf("Calls = %d, want %d", svc.Calls(), goroutines*callsEach)
	}
}

func TestConcurrentAsyncAndKill(t *testing.T) {
	sys := NewSystem()
	var handled sync.WaitGroup
	svc, err := sys.Bind(ServiceConfig{Name: "a", Handler: func(ctx *Ctx, args *Args) {
		handled.Done()
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	const n = 200
	handled.Add(n)
	for i := 0; i < n; i++ {
		var args Args
		if err := c.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	handled.Wait()
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
	if svc.AsyncCalls() != n {
		t.Fatalf("AsyncCalls = %d", svc.AsyncCalls())
	}
}

func TestShardPoolGrowsAndPools(t *testing.T) {
	sys := NewSystemShards(1)
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	for i := 0; i < 10; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls reuse the client's held descriptor: one created,
	// none in the pool while held.
	if sh.cdsCreated.Load() != 1 {
		t.Fatalf("cdsCreated = %d, want 1", sh.cdsCreated.Load())
	}
	if !c.Held() || sh.poolSize() != 0 {
		t.Fatalf("held = %v, poolSize = %d, want the descriptor pinned to the client", c.Held(), sh.poolSize())
	}
	// Release repools it; the pooled path then recycles the same one.
	c.Release()
	if c.Held() || sh.poolSize() != 1 {
		t.Fatalf("after Release: held = %v, poolSize = %d", c.Held(), sh.poolSize())
	}
	for i := 0; i < 10; i++ {
		if err := c.CallPooled(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	if sh.cdsCreated.Load() != 1 || sh.poolSize() != 1 {
		t.Fatalf("pooled calls after Release: cdsCreated = %d, poolSize = %d, want 1 recycled CD", sh.cdsCreated.Load(), sh.poolSize())
	}
}

func TestScratchSizing(t *testing.T) {
	sys := NewSystemShards(1)
	big, err := sys.Bind(ServiceConfig{Name: "big", Handler: func(ctx *Ctx, args *Args) {
		if len(ctx.Scratch()) != 16384 {
			t.Errorf("scratch = %d", len(ctx.Scratch()))
		}
	}, ScratchBytes: 16384})
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.Bind(ServiceConfig{Name: "small", Handler: func(ctx *Ctx, args *Args) {
		if len(ctx.Scratch()) != defaultScratchBytes {
			t.Errorf("scratch = %d", len(ctx.Scratch()))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(big.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(small.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Bind(ServiceConfig{Name: "neg", Handler: func(ctx *Ctx, args *Args) {}, ScratchBytes: -1}); err == nil {
		t.Fatal("negative scratch accepted")
	}
}

func TestCallsFromUnboundShardsStillCorrect(t *testing.T) {
	// Correctness must not depend on the binding discipline: many
	// goroutines sharing one shard is slower but safe.
	sys := NewSystemShards(1)
	var total int64
	var mu sync.Mutex
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {
		mu.Lock()
		total++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sys.NewClientOnShard(0)
			var args Args
			for i := 0; i < 200; i++ {
				if err := c.Call(svc.EP(), &args); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if total != 1600 {
		t.Fatalf("total = %d", total)
	}
}
