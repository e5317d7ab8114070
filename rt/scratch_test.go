package rt

import (
	"runtime"
	"testing"
)

// Tests for the descriptor's scratch buffer: it is allocated by the first
// call that asks for it (Ctx.Scratch). That it is sized to the service and
// grows for a larger one is TestScratchSizing and TestHeldScratchGrowth,
// that it is serially shared and not zeroed TestScratchIsRecycledWithinShard,
// and that a warm call allocates none of it TestWarmScratchAllocs.

// TestScratchOnFirstUse: a call whose handler never asks for scratch
// leaves its descriptor without one; the first call that asks gets the
// service's ScratchBytes.
func TestScratchOnFirstUse(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	plain, err := sys.Bind(ServiceConfig{Name: "plain", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	asks, err := sys.Bind(ServiceConfig{Name: "asks", Handler: func(ctx *Ctx, args *Args) {
		args[0] = uint64(len(ctx.Scratch()))
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	if err := c.Call(plain.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if c.held.scratch != nil {
		t.Fatalf("a call that never asked for scratch left a %d-byte buffer", cap(c.held.scratch))
	}
	if err := c.Call(asks.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != defaultScratchBytes || cap(c.held.scratch) != defaultScratchBytes {
		t.Fatalf("first Scratch: len %d, capacity %d; want %d", args[0], cap(c.held.scratch), defaultScratchBytes)
	}
}

// TestHeldClientBytes: a client holding its descriptor after one Call to
// a service that never touches Scratch costs ≤ 1 KiB of live heap — the
// client, its ownership record, the descriptor and its call stripe; no
// scratch. Report-only under -race.
func TestHeldClientBytes(t *testing.T) {
	const n = 2000
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "null", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	per, keep := heapPerClient(n, func() *Client {
		c := sys.NewClientWith(ClientOptions{})
		if err := c.Call(svc.EP(), &Args{}); err != nil {
			t.Fatal(err)
		}
		return c
	})
	t.Logf("%d held clients: %.0f B live each", n, per)
	if per > 1024 {
		if raceEnabled {
			t.Logf("a held client costs %.0f B under -race (report-only)", per)
		} else {
			t.Errorf("a held client costs %.0f B live after one Call, want ≤ 1024", per)
		}
	}
	runtime.KeepAlive(keep)
}
