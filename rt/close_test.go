package rt

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestCloseStopsAsyncWorkers(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	done := make(chan struct{}, 8)
	svc, err := sys.Bind(ServiceConfig{Name: "a", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	for i := 0; i < 4; i++ {
		if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if w := sys.Stats()[0].AsyncWorkers; w == 0 {
		t.Fatal("no async worker accounted while the pool is live")
	}
	before := runtime.NumGoroutine()
	sys.Close()
	sys.Close() // idempotent
	// Close joins the workers, so the goroutines are gone on return.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() >= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runtime.NumGoroutine() >= before {
		t.Fatalf("async workers leaked: %d goroutines, was %d", runtime.NumGoroutine(), before)
	}
	// Worker exit decrements the live count (no stale workers reported
	// post-close) and is visible in the exit counter.
	st := sys.Stats()[0]
	if st.AsyncWorkers != 0 {
		t.Fatalf("Stats().AsyncWorkers = %d after Close, want 0", st.AsyncWorkers)
	}
	if st.WorkerExits == 0 {
		t.Fatal("Stats().WorkerExits = 0 after Close, want the joined workers counted")
	}
	// Async submissions are rejected; synchronous calls still work.
	if err := c.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrClosed) {
		t.Fatalf("async after close: %v", err)
	}
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("sync call after close failed: %v", err)
	}
	if n := svc.inFlightTotal(); n != 0 {
		t.Fatalf("inFlightTotal = %d after Close", n)
	}
}
