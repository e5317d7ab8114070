package rt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestAsyncBatchDeliversAll: one AsyncBatch call behaves like n
// AsyncCalls — every request executes with its own argument block, and
// the async counters see all of them.
func TestAsyncBatchDeliversAll(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	var sum atomic.Uint64
	svc, err := sys.Bind(ServiceConfig{Name: "sum", Handler: func(ctx *Ctx, args *Args) {
		sum.Add(args[0])
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	const n = 100 // larger than the ring: exercises the slow tail too
	argss := make([]Args, n)
	want := uint64(0)
	for i := range argss {
		argss[i][0] = uint64(i + 1)
		want += uint64(i + 1)
	}
	accepted := 0
	for accepted < n {
		k, err := c.AsyncBatch(svc.EP(), argss[accepted:])
		accepted += k
		if err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for sum.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if got := svc.AsyncCalls(); got != n {
		t.Fatalf("AsyncCalls = %d, want %d", got, n)
	}
}

// TestBatchFlushReuse: a reusable Batch stages, flushes, notifies, and
// is immediately reusable; Add past the initial capacity grows the
// staging buffer without losing requests.
func TestBatchFlushReuse(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	var handled atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {
		handled.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	b := c.NewBatch(svc.EP(), 2) // deliberately small: Add must grow it
	done := make(chan struct{}, 16)
	b.SetNotify(done)
	for round := 0; round < 3; round++ {
		var args Args
		for i := 0; i < 7; i++ {
			args[0] = uint64(i)
			b.Add(&args)
		}
		if got := b.Len(); got != 7 {
			t.Fatalf("round %d: Len = %d, want 7", round, got)
		}
		n, err := b.Flush()
		if err != nil || n != 7 {
			t.Fatalf("round %d: Flush = (%d, %v)", round, n, err)
		}
		if b.Len() != 0 {
			t.Fatalf("round %d: batch not reset after Flush", round)
		}
		for i := 0; i < 7; i++ {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("round %d: notification %d never arrived", round, i)
			}
		}
	}
	if got := handled.Load(); got != 21 {
		t.Fatalf("handled = %d, want 21", got)
	}
	if n, err := b.Flush(); n != 0 || err != nil {
		t.Fatalf("empty Flush = (%d, %v)", n, err)
	}
}

// TestAsyncBatchBackpressureTail: a batch larger than the free ring
// space against a saturated worker pool accepts the head and rejects
// the tail with ErrBackpressure; the rejected requests are un-admitted
// (the soft-kill drain must not wait for them) and the accepted ones
// still drain.
func TestAsyncBatchBackpressureTail(t *testing.T) {
	sys := NewSystemShards(1)
	sh := &sys.shards[0]
	sh.maxWorkers = 1
	sh.lanes[0].ring.init(2)
	sh.submitWait = time.Millisecond

	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var executed atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		started <- struct{}{}
		<-gate
		executed.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.AsyncCall(svc.EP(), &args); err != nil { // saturate the worker
		t.Fatal(err)
	}
	<-started

	argss := make([]Args, 5) // 2 fit the ring, 3 must be rejected
	n, err := c.AsyncBatch(svc.EP(), argss)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overload batch: %v", err)
	}
	if n != 2 {
		t.Fatalf("accepted %d of the batch, want 2", n)
	}
	if got := sys.Stats()[0].BackpressureRejects; got != 1 {
		t.Fatalf("BackpressureRejects = %d, want 1 (one event per rejected flush)", got)
	}
	// Only the accepted requests are admitted: 1 executing + 2 queued.
	if got := svc.AsyncCalls(); got != 3 {
		t.Fatalf("AsyncCalls = %d, want 3", got)
	}
	if got := svc.inFlightTotal(); got != 3 {
		t.Fatalf("inFlightTotal = %d, want 3 — rejected tail not un-admitted", got)
	}
	close(gate)
	sys.Close()
	if got := executed.Load(); got != 3 {
		t.Fatalf("executed = %d, want 3", got)
	}
}

// TestAsyncBatchRejectedWhenKilledOrClosed: batches respect the same
// lifecycle gates as single submissions.
func TestAsyncBatchRejectedWhenKilledOrClosed(t *testing.T) {
	sys := NewSystemShards(1)
	svc, err := sys.Bind(ServiceConfig{Name: "k", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	argss := make([]Args, 3)
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
	if n, err := c.AsyncBatch(svc.EP(), argss); !errors.Is(err, ErrBadEntryPoint) || n != 0 {
		t.Fatalf("batch to killed service = (%d, %v)", n, err)
	}
	svc2, err := sys.Bind(ServiceConfig{Name: "k2", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if n, err := c.AsyncBatch(svc2.EP(), argss); !errors.Is(err, ErrClosed) || n != 0 {
		t.Fatalf("batch after Close = (%d, %v)", n, err)
	}
	if got := svc2.inFlightTotal(); got != 0 {
		t.Fatalf("inFlightTotal = %d after rejected batch, want 0", got)
	}
}

// TestNotifyDropsOnAbandonedChannel: a completion channel nobody ever
// receives from costs the worker one bounded wait per request — the
// drop is counted, the worker survives, and the shard keeps servicing
// requests (the old blocking send wedged the worker forever).
func TestNotifyDropsOnAbandonedChannel(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	sys.shards[0].notifyWait = time.Millisecond
	var handled atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "n", Handler: func(ctx *Ctx, args *Args) {
		handled.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	abandoned := make(chan struct{}) // unbuffered, never received from
	var args Args
	if err := c.AsyncCallNotify(svc.EP(), &args, abandoned); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.Stats()[0].NotifyDrops != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("NotifyDrops = %d, want 1", sys.Stats()[0].NotifyDrops)
		}
		time.Sleep(time.Millisecond)
	}
	// The worker is alive and the shard still services requests.
	live := make(chan struct{}, 1)
	if err := c.AsyncCallNotify(svc.EP(), &args, live); err != nil {
		t.Fatal(err)
	}
	select {
	case <-live:
	case <-time.After(2 * time.Second):
		t.Fatal("worker wedged after an abandoned notification channel")
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handled = %d, want 2", got)
	}
}

// TestNewBatchDefaultCapacity: a batch created without a capacity is
// sized to the ring it flushes into — Options.AsyncQueueCap rounded up to
// a power of two — so one full batch is one ring's worth, whatever the
// ring size is.
func TestNewBatchDefaultCapacity(t *testing.T) {
	for _, tc := range []struct{ queueCap, want int }{{0, defaultAsyncQueueCap}, {6, 8}, {256, 256}} {
		sys := NewSystemOptions(Options{Shards: 1, Lanes: 3, AsyncQueueCap: tc.queueCap})
		b := sys.NewClientOnShard(0).NewBatch(2, 0)
		if got := cap(b.reqs); got != tc.want {
			t.Errorf("AsyncQueueCap %d: default batch capacity %d, want %d", tc.queueCap, got, tc.want)
		}
		sys.Close()
	}
}
