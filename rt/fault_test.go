package rt

import (
	"errors"
	"testing"
)

func TestHandlerPanicContained(t *testing.T) {
	sys := newSystem(t, Options{})
	svc, err := sys.Bind(ServiceConfig{Name: "flaky", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 13 {
			panic("boom")
		}
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: -1})
	var args Args
	args[0] = 13
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrServerFault) {
		t.Fatalf("err = %v, want server fault", err)
	}
	// Service stays up; descriptor was repooled, not leaked.
	args[0] = 1
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("service unusable after fault: %v", err)
	}
	if args[0] != 2 {
		t.Fatalf("args[0] = %d", args[0])
	}
	if svc.Calls() != 1 {
		t.Fatalf("Calls = %d (faulted call must not count)", svc.Calls())
	}
}

func TestAsyncPanicDoesNotKillWorker(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	done := make(chan struct{}, 4)
	svc, err := sys.Bind(ServiceConfig{Name: "aflaky", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			panic("async boom")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: -1})
	var bad, good Args
	bad[0] = 1
	if err := asyncOne(c, svc.EP(), &bad, done, 0); err != nil {
		t.Fatal(err)
	}
	<-done
	// The same async worker goroutine services the next request.
	if err := asyncOne(c, svc.EP(), &good, done, 0); err != nil {
		t.Fatal(err)
	}
	<-done
	if svc.AsyncCalls() != 2 {
		t.Fatalf("AsyncCalls = %d", svc.AsyncCalls())
	}
}
