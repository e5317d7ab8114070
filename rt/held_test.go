package rt

import (
	"errors"
	"testing"
	"time"
)

// TestNewClientShardWrap is the uint64→int wrap regression: the
// round-robin modulo must run in uint64, or the first NewClient after
// the sequence counter wraps computes a negative shard index and
// panics in NewClientOnShard.
func TestNewClientShardWrap(t *testing.T) {
	sys := NewSystemShards(3)
	sys.bindSeq.Store(^uint64(0) - 4) // a few Adds from the wrap
	for i := 0; i < 10; i++ {
		c := sys.NewClient() // must not panic across the wrap
		if c.Shard() < 0 || c.Shard() >= sys.NumShards() {
			t.Fatalf("client %d placed on shard %d of %d", i, c.Shard(), sys.NumShards())
		}
	}
}

// TestHoldReleaseLifecycle pins the held-CD protocol: Hold is
// idempotent and front-loads what the first Call would do, Release
// repools the descriptor, and the next Call after a Release
// re-acquires. (Double-Release is a loud failure now —
// TestDoubleReleasePanics pins that separately.)
func TestHoldReleaseLifecycle(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	if c.Held() {
		t.Fatal("fresh client already holds a descriptor")
	}
	c.Hold()
	c.Hold() // idempotent
	if !c.Held() || sh.heldCDs.Load() != 1 {
		t.Fatalf("held = %v, heldCDs = %d", c.Held(), sh.heldCDs.Load())
	}
	var args Args
	for i := 0; i < 3; i++ {
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	if args[0] != 3 {
		t.Fatalf("args[0] = %d", args[0])
	}
	c.Release()
	if c.Held() || sh.heldCDs.Load() != 0 || sh.poolSize() != 1 {
		t.Fatalf("after Release: held = %v, heldCDs = %d, poolSize = %d",
			c.Held(), sh.heldCDs.Load(), sh.poolSize())
	}
	// The next Call re-acquires (the same pooled descriptor: no growth).
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if !c.Held() || sh.cdsCreated.Load() != 1 {
		t.Fatalf("re-acquire: held = %v, cdsCreated = %d", c.Held(), sh.cdsCreated.Load())
	}
}

// TestDoubleReleasePanics is the double-repool regression: a second
// Release (or Close) of the same hold must fail loudly — the first one
// already handed the descriptor back, and a silent second repool could
// give the same descriptor to two clients. Release on a never-held
// client stays quiet, and Hold re-arms the check: release after a
// fresh hold is legal again.
func TestDoubleReleasePanics(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	c := sys.NewClientOnShard(0)
	c.Release() // never held: quiet no-op
	c.Release() // still quiet — nothing was ever repooled
	c.Hold()
	c.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Release of a held client did not panic")
			}
		}()
		c.Release()
	}()
	// Hold re-arms: a fresh hold/release cycle is legal.
	c.Hold()
	c.Release()
	// Close is Release under another name; a second Close after the
	// cycle above must be as loud.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Close of a held client did not panic")
			}
		}()
		c.Close()
	}()
}

// TestReleaseAfterAbandonQuiet: an abandoned client's Release must NOT
// panic and must not double-repool — the scavenger owns (or already
// settled) the descriptor; the owner's late Release walks away quietly.
func TestReleaseAfterAbandonQuiet(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	c := sys.NewClientOnShard(0)
	c.Hold()
	c.Abandon()
	// The scavenger drops the gauge before it pushes the compensating
	// descriptor; wait for both.
	waitCond(t, 2*time.Second, "scavenger reclaim", func() bool { return sh.heldCDs.Load() == 0 && sh.poolSize() == 1 })
	c.Release() // scavenger already reclaimed: quiet
	c.Release() // and quiet again — abandoned clients never get the loud path
	if got := sh.heldCDs.Load(); got != 0 {
		t.Fatalf("heldCDs = %d after abandoned release", got)
	}
	if got := sh.poolSize(); got != 1 {
		t.Fatalf("poolSize = %d, want 1 (exactly one repool)", got)
	}
}

// TestReleaseAfterCloseRepoolsCD: System.Close does not touch the
// descriptor pool (synchronous calls keep popping it), so a descriptor
// held across Close keeps working, its Release returns it to the pool
// exactly once, a second Release still panics, and a hold begun after
// Close is net zero on the pool: the descriptor is in one place throughout.
func TestReleaseAfterCloseRepoolsCD(t *testing.T) {
	sys := NewSystemShards(1)
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	// Close's drain may pool a descriptor of its own.
	poolAfterClose := sh.poolSize()
	held := c.held
	// Synchronous calls on the held descriptor still work after Close
	// (they use no goroutines), exactly as the pooled path always has.
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("held sync call after Close: %v", err)
	}
	if c.held != held {
		t.Fatal("the call after Close ran on another descriptor")
	}
	c.Release()
	if c.Held() || sh.heldCDs.Load() != 0 {
		t.Fatalf("after Release: held = %v, heldCDs = %d", c.Held(), sh.heldCDs.Load())
	}
	if got := sh.poolSize(); got != poolAfterClose+1 || sh.free.Load() != held {
		t.Fatalf("Release after Close: pool %d → %d, head is the released descriptor: %v; want it back, once",
			poolAfterClose, got, sh.free.Load() == held)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Release after Close did not panic")
			}
		}()
		c.Release()
	}()
	// A hold begun after Close takes the descriptor back out and returns it.
	c2 := sys.NewClientOnShard(0)
	c2.Hold()
	if got := sh.poolSize(); got != poolAfterClose || c2.held != held {
		t.Fatalf("post-Close hold: poolSize = %d, want %d, on the released descriptor: %v", got, poolAfterClose, c2.held == held)
	}
	c2.Release()
	if got, created := sh.poolSize(), sh.cdsCreated.Load(); got != poolAfterClose+1 || int(created) != got {
		t.Fatalf("post-Close hold/release: poolSize = %d, want %d; %d descriptors created, want every one pooled", got, poolAfterClose+1, created)
	}
}

// TestHeldScratchGrowth: a held descriptor serially serves services
// with different scratch requirements, growing once and never
// shrinking capacity — the same serial-sharing rule as the pool.
func TestHeldScratchGrowth(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	big, err := sys.Bind(ServiceConfig{Name: "big", Handler: func(ctx *Ctx, args *Args) {
		args[0] = uint64(len(ctx.Scratch()))
	}, ScratchBytes: 16384})
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.Bind(ServiceConfig{Name: "small", Handler: func(ctx *Ctx, args *Args) {
		args[0] = uint64(len(ctx.Scratch()))
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(big.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != 16384 {
		t.Fatalf("big scratch = %d", args[0])
	}
	if err := c.Call(small.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != defaultScratchBytes {
		t.Fatalf("small scratch = %d", args[0])
	}
	if got := cap(c.held.scratch); got < 16384 {
		t.Fatalf("held scratch capacity shrank to %d", got)
	}
}

// TestExchangePublishesToEveryReplica: by the time Exchange returns,
// every shard's table replica resolves the new handler — a call
// started after Exchange on any shard runs the new code.
func TestExchangePublishesToEveryReplica(t *testing.T) {
	sys := NewSystemShards(4)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "x", Handler: func(ctx *Ctx, args *Args) { args[0] = 1 }})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, sys.NumShards())
	var args Args
	for i := range clients {
		clients[i] = sys.NewClientOnShard(i)
		if err := clients[i].Call(svc.EP(), &args); err != nil || args[0] != 1 {
			t.Fatalf("shard %d v1: %v, args[0]=%d", i, err, args[0])
		}
	}
	if err := sys.Exchange(svc.EP(), func(ctx *Ctx, args *Args) { args[0] = 2 }); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if err := c.Call(svc.EP(), &args); err != nil || args[0] != 2 {
			t.Fatalf("shard %d after Exchange: %v, args[0]=%d (replica not republished)", i, err, args[0])
		}
	}
}

// TestKillRetractsEveryReplica: after Kill returns, every shard's
// replica entry is gone — held-CD and pooled calls on any shard fail,
// and rebinding the entry point republishes everywhere.
func TestKillRetractsEveryReplica(t *testing.T) {
	sys := NewSystemShards(4)
	defer sys.Close()
	for _, hard := range []bool{false, true} {
		svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: func(ctx *Ctx, args *Args) {}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Kill(svc.EP(), hard); err != nil {
			t.Fatal(err)
		}
		var args Args
		for i := 0; i < sys.NumShards(); i++ {
			c := sys.NewClientOnShard(i)
			c.Hold()
			if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrBadEntryPoint) {
				t.Fatalf("hard=%v shard %d held call after kill: %v", hard, i, err)
			}
			if err := c.CallPooled(svc.EP(), &args); !errors.Is(err, ErrBadEntryPoint) {
				t.Fatalf("hard=%v shard %d pooled call after kill: %v", hard, i, err)
			}
		}
		reborn, err := sys.Bind(ServiceConfig{Name: "reborn", Handler: func(ctx *Ctx, args *Args) { args[0] = 7 }, EP: svc.EP()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sys.NumShards(); i++ {
			c := sys.NewClientOnShard(i)
			if err := c.Call(reborn.EP(), &args); err != nil || args[0] != 7 {
				t.Fatalf("hard=%v shard %d rebound call: %v, args[0]=%d", hard, i, err, args[0])
			}
		}
		if err := sys.Kill(reborn.EP(), true); err != nil {
			t.Fatal(err)
		}
	}
}
