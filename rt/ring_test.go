package rt

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// ringTag packs a producer ID and per-producer sequence number into an
// Args word so consumers can check ordering.
func ringTag(producer, seq int) uint64 { return uint64(producer)<<32 | uint64(seq) }

// testRing sizes r for capacity requests as configureLanes does and gives
// it zeroed slots as provisionRings does. Sizing a shard's ring this way
// before its first submission sets the size that submission provisions.
func testRing(r *asyncRing, capacity int) {
	r.mask = ringMask(capacity)
	r.slots = make([]ringSlot, r.mask+1)
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		var r asyncRing
		testRing(&r, tc.ask)
		if got := r.capacity(); got != tc.want {
			t.Errorf("testRing(%d): capacity = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestRingPushPopOrder drives a ring single-threaded through several
// laps: FIFO order, exact fullness detection, exact emptiness.
func TestRingPushPopOrder(t *testing.T) {
	var r asyncRing
	testRing(&r, 4)
	var buf [8]asyncReq
	next := 0 // next value expected out
	pushed := 0
	for lap := 0; lap < 5; lap++ {
		for r.push(nil, nil, &Args{ringTag(0, pushed)}, 0, nil, 0) {
			pushed++
		}
		if pushed-next != r.capacity() {
			t.Fatalf("lap %d: ring accepted %d, want %d", lap, pushed-next, r.capacity())
		}
		if r.length() != r.capacity() || r.empty() {
			t.Fatalf("lap %d: full ring reports length=%d empty=%v", lap, r.length(), r.empty())
		}
		// Drain in two batches to exercise partial popBatch.
		for r.length() > 0 {
			n := r.popBatch(buf[:3])
			for i := 0; i < n; i++ {
				if got := buf[i].args[0]; got != ringTag(0, next) {
					t.Fatalf("popped %#x, want %#x", got, ringTag(0, next))
				}
				next++
			}
		}
		if !r.empty() || r.popBatch(buf[:]) != 0 {
			t.Fatalf("lap %d: drained ring not empty", lap)
		}
	}
}

// TestRingZeroValueLaps: a ring whose slots are a zeroed array — what a
// shard's first submission allocates — is a ring on lap 0, at 2, 4 and 64
// slots alike: over four laps it is FIFO, full at exactly its capacity,
// and never stalled while empty; a claimed but unpublished head is.
func TestRingZeroValueLaps(t *testing.T) {
	for _, size := range []int{2, 4, 64} {
		var r asyncRing
		testRing(&r, size)
		var buf [asyncBatchSize]asyncReq
		pushed, next := 0, 0
		for lap := 0; lap < 4; lap++ {
			if r.stalled() || !r.empty() {
				t.Fatalf("size %d lap %d: empty ring reads stalled=%v empty=%v", size, lap, r.stalled(), r.empty())
			}
			for r.push(nil, nil, &Args{uint64(pushed)}, 0, nil, 0) {
				pushed++
			}
			if got := pushed - next; got != size || r.length() != size {
				t.Fatalf("size %d lap %d: accepted %d (length %d), want exactly %d", size, lap, got, r.length(), size)
			}
			for r.length() > 0 {
				n := r.popBatch(buf[:3])
				for i := 0; i < n; i++ {
					if got := buf[i].args[0]; got != uint64(next) {
						t.Fatalf("size %d lap %d: popped %d, want %d", size, lap, got, next)
					}
					next++
				}
			}
		}
		if r.stalled() {
			t.Fatalf("size %d: drained ring reads stalled", size)
		}
		r.enq.Add(1) // a producer claims the head and has not published it
		if !r.stalled() || r.popBatch(buf[:]) != 0 {
			t.Fatalf("size %d: a claimed, unpublished head is not stalled, or was popped", size)
		}
	}
}

// TestProvisionConcurrentFirstSubmit: eight goroutines make a fresh
// shard's first AsyncCall at once, on every lane of a three-lane shard:
// the rings are allocated once, and every request accepted is executed.
func TestProvisionConcurrentFirstSubmit(t *testing.T) {
	rounds := 50
	if testing.Short() || raceEnabled {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		sys := newSystem(t, Options{Shards: 1, Lanes: 3})
		var executed atomic.Int64
		svc, err := sys.Bind(ServiceConfig{Name: "count", Handler: func(ctx *Ctx, args *Args) { executed.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			c := sys.NewClientWith(ClientOptions{Shard: 0, Lane: Lane(1 + g%NumLaneClasses)})
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := c.AsyncCall(svc.EP(), &Args{}); err != nil {
					t.Errorf("first AsyncCall: %v", err)
					return
				}
				accepted.Add(1)
			}()
		}
		close(start)
		wg.Wait()
		sys.Close()
		if accepted.Load() != 8 || executed.Load() != accepted.Load() {
			t.Fatalf("round %d: accepted %d of 8, executed %d", round, accepted.Load(), executed.Load())
		}
	}
}

// TestProvisionRacesClose: a shard's first submissions race Close. Every
// refusal is ErrClosed — nothing reads as overload — and every request
// accepted has run by the time Close returns.
func TestProvisionRacesClose(t *testing.T) {
	rounds := 100
	if testing.Short() || raceEnabled {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		sys := newSystem(t, Options{Shards: 1})
		var executed atomic.Int64
		svc, err := sys.Bind(ServiceConfig{Name: "count", Handler: func(ctx *Ctx, args *Args) { executed.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			c := sys.NewClientWith(ClientOptions{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					switch err := c.AsyncCall(svc.EP(), &Args{}); {
					case err == nil:
						accepted.Add(1)
					case !errors.Is(err, ErrClosed):
						t.Errorf("a submission racing Close failed with %v, want ErrClosed", err)
					}
				}
			}()
		}
		close(start)
		sys.Close()
		ran := executed.Load()
		wg.Wait()
		if ran != accepted.Load() {
			t.Fatalf("round %d: accepted %d, executed %d by Close", round, accepted.Load(), ran)
		}
	}
}

// TestRingConcurrentProducersBatchedConsumer is the ring's property
// test: random concurrent producers against one batch-draining
// consumer. Checks no-loss, no-duplication, and FIFO per producer —
// the ordering contract the shard relies on.
func TestRingConcurrentProducersBatchedConsumer(t *testing.T) {
	const producers = 8
	perProducer := 5000
	if testing.Short() || raceEnabled {
		perProducer = 800
	}
	var r asyncRing
	testRing(&r, 16) // small ring: force wraparound and fullness backoff

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for seq := 0; seq < perProducer; seq++ {
				args := Args{ringTag(p, seq)}
				for !r.push(nil, nil, &args, 0, nil, 0) {
					runtime.Gosched()
				}
				if rng.Intn(64) == 0 {
					runtime.Gosched() // jitter the interleavings
				}
			}
		}(p)
	}

	seen := make([][]int, producers) // per-producer sequence trace
	consumed := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch [asyncBatchSize]asyncReq
		for consumed < producers*perProducer {
			n := r.popBatch(batch[:])
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				w := batch[i].args[0]
				p, seq := int(w>>32), int(uint32(w))
				seen[p] = append(seen[p], seq)
				consumed++
			}
		}
	}()
	wg.Wait()
	<-done

	for p := 0; p < producers; p++ {
		if len(seen[p]) != perProducer {
			t.Fatalf("producer %d: consumed %d of %d (lost or duplicated)", p, len(seen[p]), perProducer)
		}
		for i, seq := range seen[p] {
			if seq != i {
				t.Fatalf("producer %d: position %d holds seq %d — FIFO-per-producer violated", p, i, seq)
			}
		}
	}
	if !r.empty() {
		t.Fatal("ring not empty after full drain")
	}
}

// TestRingConcurrentConsumersNoLossNoDup relaxes the ordering check
// (several consumers interleave) but every pushed request must come
// out exactly once — the multi-worker drain shape.
func TestRingConcurrentConsumersNoLossNoDup(t *testing.T) {
	const producers, consumers = 6, 3
	perProducer := 4000
	if testing.Short() || raceEnabled {
		perProducer = 600
	}
	total := producers * perProducer
	var r asyncRing
	testRing(&r, 32)

	counts := make([]atomic.Int32, total)
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			var batch [asyncBatchSize]asyncReq
			for consumed.Load() < int64(total) {
				n := r.popBatch(batch[:])
				if n == 0 {
					runtime.Gosched()
					continue
				}
				for i := 0; i < n; i++ {
					w := batch[i].args[0]
					p, seq := int(w>>32), int(uint32(w))
					counts[p*perProducer+seq].Add(1)
				}
				consumed.Add(int64(n))
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for seq := 0; seq < perProducer; seq++ {
				args := Args{ringTag(p, seq)}
				for !r.push(nil, nil, &args, 0, nil, 0) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	pwg.Wait()
	cwg.Wait()
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("request %d consumed %d times, want exactly once", i, n)
		}
	}
}

// FuzzRingModel checks the ring against a plain slice queue under an
// arbitrary single-threaded push/pop program: byte 0x00-0x7f pushes
// the next value, 0x80-0xff pops a batch of (b&7)+1.
func FuzzRingModel(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x81, 0x03, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, program []byte) {
		var r asyncRing
		testRing(&r, 4)
		var model []uint64
		next := uint64(0)
		var buf [8]asyncReq
		for _, op := range program {
			if op < 0x80 {
				ok := r.push(nil, nil, &Args{next}, 0, nil, 0)
				if wantOK := len(model) < r.capacity(); ok != wantOK {
					t.Fatalf("push(%d) = %v with %d queued (cap %d)", next, ok, len(model), r.capacity())
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				k := int(op&7) + 1
				n := r.popBatch(buf[:k])
				want := len(model)
				if want > k {
					want = k
				}
				if n != want {
					t.Fatalf("popBatch(%d) = %d, want %d (queued %d)", k, n, want, len(model))
				}
				for i := 0; i < n; i++ {
					if buf[i].args[0] != model[i] {
						t.Fatalf("popped %d, want %d", buf[i].args[0], model[i])
					}
				}
				model = model[n:]
			}
		}
		if r.length() != len(model) || r.empty() != (len(model) == 0) {
			t.Fatalf("length=%d empty=%v, model holds %d", r.length(), r.empty(), len(model))
		}
	})
}
