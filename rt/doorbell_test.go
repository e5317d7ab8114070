package rt

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Lost-wakeup stress for the worker's park path. A worker that finds
// every ring empty parks at once, so the Dekker handshake between
// workerLoop's advertise/re-check/block and wake's parked load runs
// once per drain, not once per idle period. These tests drive it on
// purpose: each producer waits for its request's handler-side
// completion before submitting the next, so the ring empties — and the
// worker heads for the doorbell — between every request. The wait polls
// a counter rather than blocking, so the next submit lands while the
// worker is between its last empty pop and its block, which is the
// window the handshake exists for (deleting workerLoop's post-advertise
// re-check hangs this test within seconds). Supervision is off
// (WorkerStallThreshold < 0): the watchdog's safety-net ring would turn
// a lost wakeup into a 5 ms delay instead of the hang the test's timer
// catches. One worker per shard: with several, a worker the OS
// deschedules between claiming a batch and recycling its slots stops
// the ring at the wrap while the other producers lap it, and that
// ErrBackpressure is the bounded queue working, not a doorbell fault.

const doorbellStressIters = 100_000

func TestDoorbellParkStress(t *testing.T) {
	iters := doorbellStressIters
	if raceEnabled || testing.Short() {
		iters /= 10
	}
	for _, lanes := range []int{1, 3} {
		for _, producers := range []int{1, 4} {
			for _, flush := range []int{0, 3} {
				name := fmt.Sprintf("lanes=%d/producers=%d/flush=%d", lanes, producers, flush)
				t.Run(name, func(t *testing.T) {
					doorbellStress(t, lanes, producers, flush, iters/producers)
				})
			}
		}
	}
}

// ringState renders shard 0's queue and worker state for a failure
// message.
func ringState(sys *System) string {
	st := sys.Stats()[0]
	return fmt.Sprintf("queue depth %d of %d, %d workers, %d parked",
		st.AsyncQueueDepth, st.AsyncQueueCap, st.AsyncWorkers, sys.shards[0].parked.Load())
}

// doorbellStress runs producers goroutines for iters rounds each. A
// round is one AsyncCall (flush == 0) or one Batch.Flush of flush
// requests, followed by a wait for every handler-side completion token.
func doorbellStress(t *testing.T, lanes, producers, flush, iters int) {
	leakCheck(t)
	opts := Options{Shards: 1, MaxWorkers: 1, WorkerStallThreshold: -1}
	if lanes > 1 {
		opts.Lanes = lanes
	}
	sys := newSystem(t, opts)

	perRound := max(flush, 1)
	// One completion counter per producer, a line apart.
	type counter struct {
		n atomic.Int64
		_ [56]byte
	}
	completions := make([]counter, producers)
	var handled atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "bell", Handler: func(ctx *Ctx, args *Args) {
		handled.Add(1)
		completions[args[0]].n.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}

	oneP := runtime.GOMAXPROCS(0) == 1
	var submitted atomic.Int64
	var wg sync.WaitGroup
	finished := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			co := ClientOptions{Shard: 0}
			if lanes > 1 {
				// Spread producers over the lanes, lowest class first: the
				// pre-park re-check has to see a slot on ANY lane.
				co.Lane = Lane(1 + (p+lanes-1)%lanes)
			}
			c := sys.NewClientWith(co)
			var b *Batch
			if flush > 0 {
				b = c.NewBatch(svc.EP(), flush)
			}
			var args Args
			args[0] = uint64(p)
			for i := 0; i < iters; i++ {
				if b == nil {
					if err := c.AsyncCall(svc.EP(), &args); err != nil {
						t.Errorf("producer %d round %d: AsyncCall: %v (%s)", p, i, err, ringState(sys))
						return
					}
				} else {
					for k := 0; k < flush; k++ {
						b.Add(&args)
					}
					if n, err := b.Flush(); err != nil || n != flush {
						t.Errorf("producer %d round %d: Flush = (%d, %v) (%s)", p, i, n, err, ringState(sys))
						return
					}
				}
				submitted.Add(int64(perRound))
				want := int64((i + 1) * perRound)
				for spins := 0; completions[p].n.Load() != want; spins++ {
					if spins%64 == 63 || oneP {
						runtime.Gosched()
					}
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		close(finished)
	}()

	// A lost wakeup strands one producer on its completion counter
	// forever; progress is the only thing to watch.
	hang := time.NewTimer(60 * time.Second)
	defer hang.Stop()
	select {
	case <-finished:
	case <-hang.C:
		t.Fatalf("hang: submitted %d, handled %d, %s", submitted.Load(), handled.Load(), ringState(sys))
	}
	if t.Failed() {
		return
	}
	want := int64(producers * iters * perRound)
	if submitted.Load() != want || handled.Load() != want {
		t.Fatalf("submitted %d, handled %d, want %d each", submitted.Load(), handled.Load(), want)
	}
	st := sys.Stats()[0]
	if st.AsyncQueueDepth != 0 || st.BackpressureRejects != 0 {
		t.Fatalf("AsyncQueueDepth = %d, BackpressureRejects = %d, want 0, 0", st.AsyncQueueDepth, st.BackpressureRejects)
	}
}

// BenchmarkAsyncIdleWake prices waking an idle worker: one request
// submitted to a shard whose only worker is parked on the doorbell,
// timed from just before the submission to the handler's entry (mean
// wake-ns/op, median wake-p50-ns). The submitter then either blocks on the request's done
// channel at once (block), giving up its processor, or keeps it busy for
// 50 µs without yielding first (busy). The doorbell readies the worker
// on the submitter's processor, so on one P a busy submitter holds it
// off for the whole 50 µs, and on more the wake waits for another
// processor to take it. Run with -cpu 1,2.
func BenchmarkAsyncIdleWake(b *testing.B) {
	for _, mode := range []string{"block", "busy"} {
		busy := mode == "busy"
		b.Run(mode, func(b *testing.B) {
			sys := newSystem(b, Options{Shards: 1, MaxWorkers: 1, WorkerStallThreshold: -1})
			epoch := time.Now()
			var entered atomic.Int64 // handler entry, ns since epoch
			svc, err := sys.Bind(ServiceConfig{Name: "wake", Handler: func(ctx *Ctx, args *Args) {
				entered.Store(int64(time.Since(epoch)))
			}})
			if err != nil {
				b.Fatal(err)
			}
			c := sys.NewClientWith(ClientOptions{})
			done := make(chan struct{}, 1)
			batch := c.NewBatch(svc.EP(), 1)
			batch.SetNotify(done)
			var args Args
			submit := func() {
				batch.Add(&args)
				if _, err := batch.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			submit() // provisions the rings and starts the worker
			<-done
			sh := &sys.shards[0]
			wakes := make([]time.Duration, b.N)
			var wake time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for sh.parked.Load() != 1 {
					runtime.Gosched()
				}
				t0 := time.Since(epoch)
				submit()
				if busy {
					for time.Since(epoch)-t0 < 50*time.Microsecond {
					}
				}
				<-done
				wakes[i] = time.Duration(entered.Load()) - t0
				wake += wakes[i]
			}
			b.StopTimer()
			slices.Sort(wakes)
			b.ReportMetric(float64(wake.Nanoseconds())/float64(b.N), "wake-ns/op")
			b.ReportMetric(float64(wakes[b.N/2].Nanoseconds()), "wake-p50-ns")
		})
	}
}
