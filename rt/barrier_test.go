package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the asymmetric fence (barrier.go, docs/INVARIANTS.md): the
// admission and completion legs on a descriptor's stripe write their
// counters plainly, and soft Kill's heavyBarrier is what orders them
// against the kill.

// storeBufferBudget is the wall time the store-buffer litmus gives its
// rounds on a loaded host.
const storeBufferBudget = 20 * time.Second

// TestHeavyBarrierStoreBuffer is the store-buffering litmus test of the
// fence a soft Kill pays. One goroutine runs the admission leg
// (Service.admit: a plain increment, then the state load); the other runs
// Kill's side (store the killed state, heavyBarrier, load the count). The
// outcome the barrier forbids is both loads missing the other side's
// store: the call admitted against an active service while the kill read
// the count without it — the call would run after Kill returned. Without
// the barrier, x86's store buffer shows that outcome in a hundred to a
// hundred thousand of the 2^19 rounds on the defining host (EXPERIMENTS.md
// E39).
func TestHeavyBarrierStoreBuffer(t *testing.T) { storeBuffer(t, 1<<19) }

func storeBuffer(t *testing.T, rounds int64) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the outcome is a race between two processors; GOMAXPROCS is 1")
	}
	if raceEnabled {
		t.Skip("the race detector's atomics fence on their own: the outcome cannot show")
	}
	svc, st := new(Service), new(callStripe)
	var round, ack atomic.Int64 // round r starts the admitter; ack = r reports it done
	var admitted atomic.Bool
	go func() {
		for r := int64(1); r <= rounds; r++ {
			for cur := round.Load(); cur != r; cur = round.Load() {
				if cur > rounds {
					return
				}
			}
			admitted.Store(svc.admit(st))
			ack.Store(r)
		}
	}()
	var bad, played int64
	end := time.Now().Add(storeBufferBudget)
	for r := int64(1); r <= rounds; r++ {
		svc.state.Store(svcActive)
		before := atomic.LoadInt64(&st.admitted)
		round.Store(r)
		// Sweep the kill's start across the admitter's wake-up, so that
		// some rounds land the two stores inside each other's window.
		for i := r % 257; i > 0; i-- {
			_ = round.Load()
		}
		svc.state.Store(svcSoftKilled)
		heavyBarrier()
		seen := atomic.LoadInt64(&st.admitted)
		for ack.Load() != r {
		}
		if admitted.Load() && seen == before {
			bad++
		}
		played = r
		if r%4096 == 0 && time.Now().After(end) {
			round.Store(rounds + 1) // release the admitter
			break
		}
	}
	if played < rounds {
		t.Logf("played %d of %d rounds in %v", played, rounds, storeBufferBudget)
	}
	if bad != 0 {
		t.Fatalf("%d of %d rounds admitted a call against an active service while the kill's load missed the admission: heavyBarrier did not order the two sides", bad, played)
	}
}

// BenchmarkHeavyBarrier prices one barrier, what a soft Kill pays twice.
func BenchmarkHeavyBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		heavyBarrier()
	}
}
