//go:build faultinject

package rt

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Chaos suite — run with `make chaos` (or CI's chaos job):
//
//	go test -run Chaos -count=5 -tags faultinject ./rt/...
//
// Each test drives one fault class through the deterministic injection
// layer, then asserts the same convergence contract: once the fault
// source stops, the system heals on its own — a fresh client completes
// chaosProbeCalls calls with zero errors, the worker pool is back
// within its configured bound, and no goroutine leaked.

const chaosProbeCalls = 1000

// chaosBaseline snapshots the goroutine count before a test builds its
// System.
func chaosBaseline() int { return runtime.NumGoroutine() }

// chaosConverge is the shared convergence check. The storm must
// already be over (hooks cleared or gated off).
func chaosConverge(t *testing.T, sys *System, svc *Service, base int) {
	t.Helper()
	sys.ClearFaults()
	// Let any open health gate probe its way closed: poll with real
	// calls until one succeeds.
	c := sys.NewClientOnShard(0)
	defer c.Release()
	var args Args
	waitCond(t, 5*time.Second, "first post-storm success", func() bool {
		return c.Call(svc.EP(), &args) == nil
	})
	// A fresh client then completes the full probe run with zero
	// errors: sync, deadline, and async legs all clean.
	fresh := sys.NewClientOnShard(0)
	defer fresh.Release()
	done := make(chan struct{}, chaosProbeCalls)
	for i := 0; i < chaosProbeCalls; i++ {
		var a Args
		var err error
		switch i % 3 {
		case 0:
			err = fresh.Call(svc.EP(), &a)
		case 1:
			err = fresh.CallDeadline(svc.EP(), &a, time.Second)
		case 2:
			err = Retry(RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond}, func() error {
				return fresh.AsyncCallNotify(svc.EP(), &a, done)
			})
		}
		if err != nil {
			t.Fatalf("post-storm call %d failed: %v", i, err)
		}
	}
	for i := 0; i < chaosProbeCalls/3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("async completion %d never arrived", i)
		}
	}
	// Worker pool converged back within its bound.
	waitCond(t, 5*time.Second, "worker pool convergence", func() bool {
		for _, st := range sys.Stats() {
			if st.AsyncWorkers > sys.shards[st.Shard].maxWorkers || st.StuckWorkers != 0 {
				return false
			}
		}
		return true
	})
	sys.Close()
	// No goroutine leaks: workers, watchdogs, and deadline executors
	// all exit once the system drains.
	waitCond(t, 5*time.Second, "goroutine convergence", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
	// Every admission of the storm and of the probe run was completed or
	// backed out, on whichever stripe it was counted — the shards' own and
	// every descriptor's, including descriptors that were condemned,
	// quarantined or dropped along the way.
	// The goroutine bound above leaves room for three, so an orphaned
	// handler may still be sitting out an injected stall: wait for it.
	waitCond(t, 5*time.Second, "inFlightTotal to reach zero after the storm drained", func() bool {
		return svc.inFlightTotal() == 0
	})
}

// chaosStorm drives mixed traffic from several goroutines for dur,
// tolerating every expected storm-time error.
func chaosStorm(t *testing.T, sys *System, svc *Service, dur time.Duration) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientOnShard(0)
			defer c.Release()
			b := c.NewBatch(svc.EP(), 8)
			var args Args
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g % 3 {
				case 0:
					err = c.Call(svc.EP(), &args)
				case 1:
					err = c.AsyncCall(svc.EP(), &args)
				default:
					for i := 0; i < 4; i++ {
						b.Add(&args)
					}
					_, err = b.Flush()
				}
				if err != nil && !errors.Is(err, ErrServerFault) &&
					!errors.Is(err, ErrServiceUnhealthy) && !errors.Is(err, ErrBackpressure) &&
					!errors.Is(err, ErrDeadline) {
					t.Errorf("storm goroutine %d: unexpected %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
}

func chaosSystem() *System {
	return NewSystemOptions(Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
}

func chaosBind(t *testing.T, sys *System) *Service {
	t.Helper()
	svc, err := sys.Bind(ServiceConfig{
		Name:    "chaos",
		Handler: func(ctx *Ctx, args *Args) { args[0] = 0 },
		Health:  &HealthConfig{MaxConsecutiveFaults: 4, MaxConsecutiveTimeouts: 4, ProbeAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestChaosHandlerPanicStorm: every dispatch panics while the gate is
// up. The health gate must trip (containing the damage), workers must
// survive the panics, and everything must heal when the storm ends.
func TestChaosHandlerPanicStorm(t *testing.T) {
	base := chaosBaseline()
	sys := chaosSystem()
	svc := chaosBind(t, sys)
	fn, gate := FaultWhile(FaultPanicEvery(1, "chaos panic"))
	sys.InjectFault(FaultSiteHandler, fn)
	chaosStorm(t, sys, svc, 20*time.Millisecond)
	if svc.HealthTrips() == 0 {
		t.Fatal("panic storm never tripped the health gate")
	}
	gate.Store(false)
	chaosConverge(t, sys, svc, base)
}

// TestChaosStalledHandlers: the first wave of dispatches wedges inside
// the handler site. The watchdog must compensate with bounded
// replacements so the ring keeps draining, then reclaim them.
func TestChaosStalledHandlers(t *testing.T) {
	base := chaosBaseline()
	sys := chaosSystem()
	svc := chaosBind(t, sys)
	sys.shards[0].maxWorkers = 2
	sys.InjectFault(FaultSiteHandler, FaultStallFirst(4, 15*time.Millisecond))
	chaosStorm(t, sys, svc, 30*time.Millisecond)
	st := sys.Stats()[0]
	if st.ReplacementsSpawned == 0 {
		t.Fatalf("stall storm never triggered supervision: %+v", st)
	}
	if st.ReplacementsSpawned > maxReplacements {
		t.Fatalf("replacements unbounded: %+v", st)
	}
	chaosConverge(t, sys, svc, base)
}

// TestChaosDelayedRingPublish: producers stall between claiming a ring
// ticket and publishing it — the window that leaves the ring non-empty
// but unconsumable. Consumers must neither lose requests nor livelock,
// and the watchdog's stall-visible dequeue check must keep parked
// workers from sleeping through the eventual publish.
func TestChaosDelayedRingPublish(t *testing.T) {
	base := chaosBaseline()
	sys := chaosSystem()
	svc := chaosBind(t, sys)
	sys.InjectFault(FaultSiteRingPublish, FaultStallFirst(8, 2*time.Millisecond))
	chaosStorm(t, sys, svc, 30*time.Millisecond)
	chaosConverge(t, sys, svc, base)
}

// TestChaosDeadlineStorm: tiny deadlines and prompt ctx cancellations
// race the shard tick, orphaning, quarantine reclaim, and worker
// supervision while the handler site stalls. The gate may trip on real
// timeout evidence but must heal; no goroutine (executor, watchdog,
// replacement worker) may leak through the storm.
func TestChaosDeadlineStorm(t *testing.T) {
	base := chaosBaseline()
	sys := chaosSystem()
	svc := chaosBind(t, sys)
	sys.InjectFault(FaultSiteHandler, FaultStallFirst(32, 3*time.Millisecond))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientOnShard(0)
			defer c.Release()
			var args Args
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if g%2 == 0 {
					err = c.CallDeadline(svc.EP(), &args, time.Duration(50+i%200)*time.Microsecond)
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
					err = c.CallContext(ctx, svc.EP(), &args)
					cancel()
				}
				if err != nil && !errors.Is(err, ErrDeadline) &&
					!errors.Is(err, ErrServiceUnhealthy) && !errors.Is(err, ErrServerFault) {
					t.Errorf("storm goroutine %d: unexpected %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	chaosConverge(t, sys, svc, base)
}

// TestChaosArenaStorm: the zero-copy payload path under every fault
// class at once. Four goroutines drive payload-carrying traffic —
// sync, offloaded AttachBytes, tiny-deadline orphans against a
// stalling handler, and batches against a service that gets
// hard-killed mid-storm — while FaultSiteArena starves every fifth
// allocation and FaultSiteHandler panics every third dispatch. The
// contract under test is lease settlement: whatever combination of
// panic containment, deadline quarantine, kill discard, offload
// staging, and admission backout a payload's call dies through, its
// arena lease must be returned. After the storm, LeasesActive and
// OffloadQueueDepth must converge to exactly zero before the usual
// convergence probe runs.
func TestChaosArenaStorm(t *testing.T) {
	base := chaosBaseline()
	sys := NewSystemOptions(Options{
		Shards:               1,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
		OffloadThreshold:     2048,
	})
	svc, err := sys.Bind(ServiceConfig{
		Name: "chaosArena",
		Handler: func(ctx *Ctx, args *Args) {
			_ = ctx.Payload(0)
			if args[0] == 1 {
				// The stall leg: wedge long enough for a tiny
				// deadline to orphan this call with its lease live.
				time.Sleep(2 * time.Millisecond)
			}
			args[0] = 0
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 4, MaxConsecutiveTimeouts: 4, ProbeAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sys.Bind(ServiceConfig{
		Name:    "victim",
		Handler: func(ctx *Ctx, args *Args) { _ = ctx.Payload(0) },
	})
	if err != nil {
		t.Fatal(err)
	}

	fn, gate := FaultWhile(FaultPanicEvery(3, "arena chaos panic"))
	sys.InjectFault(FaultSiteHandler, fn)
	var allocN atomic.Int64
	sys.InjectFault(FaultSiteArena, func() error {
		if allocN.Add(1)%5 == 0 {
			return ErrArenaFull
		}
		return nil
	})

	stormOK := func(err error) bool {
		return err == nil || errors.Is(err, ErrServerFault) ||
			errors.Is(err, ErrServiceUnhealthy) || errors.Is(err, ErrBackpressure) ||
			errors.Is(err, ErrDeadline) || errors.Is(err, ErrArenaFull) ||
			errors.Is(err, ErrKilled) || errors.Is(err, ErrBadEntryPoint)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	big := make([]byte, 8<<10)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientOnShard(0)
			defer c.Release()
			b := c.NewBatch(victim.EP(), 4)
			var args Args
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g {
				case 0: // warm zero-copy sync calls
					ref, buf, aerr := c.AllocPayload(1024)
					if aerr == nil {
						buf[0] = byte(i)
						args[0] = 0
						args.AttachPayload(ref)
						err = c.Call(svc.EP(), &args)
					} else {
						err = aerr
					}
				case 1: // staged offload copies through the async ring
					args[0] = 0
					if err = c.AttachBytes(&args, big); err == nil {
						err = c.AsyncCall(svc.EP(), &args)
					}
				case 2: // deadline orphans with leases in flight
					ref, _, aerr := c.AllocPayload(512)
					if aerr == nil {
						args[0] = 1
						args.AttachPayload(ref)
						err = c.CallDeadline(svc.EP(), &args, time.Duration(100+i%200)*time.Microsecond)
					} else {
						err = aerr
					}
				default: // payload batches against the kill victim
					staged := 0
					for k := 0; k < 4; k++ {
						ref, _, aerr := c.AllocPayload(256)
						if aerr != nil {
							continue
						}
						args[0] = 0
						args.AttachPayload(ref)
						b.Add(&args)
						staged++
					}
					if staged > 0 {
						_, err = b.Flush()
					}
				}
				if !stormOK(err) {
					t.Errorf("storm goroutine %d: unexpected %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	// Hard-kill the victim with payload batches in flight: held ring
	// entries for a dead service are discarded, and every discarded
	// entry must still settle its leases.
	sys.Kill(victim.EP(), true)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	gate.Store(false)
	sys.ClearFaults()

	// The headline assertion: every lease taken during the storm —
	// through panics, orphans, kills, backouts, and staged copies —
	// has been returned, and the offload lane is empty.
	waitCond(t, 5*time.Second, "lease convergence", func() bool {
		st := sys.Stats()[0]
		return st.LeasesActive == 0 && st.OffloadQueueDepth == 0
	})
	if st := sys.Stats()[0]; st.OffloadedBytes == 0 {
		t.Fatalf("storm never exercised the offload lane: %+v", st)
	}
	chaosConverge(t, sys, svc, base)
}

// TestChaosDomainDeath: the domain-death storm. Five goroutines drive
// held sync calls with payload leases, deadline calls (some orphaned),
// payload batches, plain calls, and deadline calls again while clients
// are killed four ways at once: FaultAbandonEvery murders the initial
// population from inside the handler site (cross-goroutine abandon
// mid-call), a victim pointer lets the handler abandon its own caller
// mid-call (the deterministic tombstone), one leg self-abandons between
// calls (the entry life check's decline), and a sixth goroutine
// abandons the last leg's client while it is entering a deadline call
// (reaped at once, with the call in flight on a pooled executor).
// FaultSiteScavenge stalls every third reap for one tick, stretching the
// window in which the client is dead and unreclaimed and its owner's
// operations race the walk. A goroutine that loses its client observes
// ErrClientAbandoned and constructs a fresh identity — domain death is
// a recoverable event, not a crash.
//
// Convergence is the tentpole's acceptance contract: every created
// client ends up abandoned (abandoned == created), zero arena leases
// remain, the CD pool is back at capacity (heldCDs and quarantine zero;
// a descriptor neither party took out of its slot would be stranded and
// fail this), and no goroutine leaks through chaosConverge's close.
func TestChaosDomainDeath(t *testing.T) {
	leakCheck(t)
	base := chaosBaseline()
	sys := chaosSystem()
	defer sys.Close() // idempotent; covers early-failure exits before chaosConverge
	var victim atomic.Pointer[Client]
	svc, err := sys.Bind(ServiceConfig{
		Name: "chaosDeath",
		Handler: func(ctx *Ctx, args *Args) {
			_ = ctx.Payload(0)
			switch args[0] {
			case 1:
				// Wedge long enough for a tiny deadline to orphan this
				// call with its descriptor busy and its lease live.
				time.Sleep(500 * time.Microsecond)
			case 2:
				// Abandon the calling client mid-call: the reap condemns
				// the descriptor under it and its completion must find
				// the slot empty.
				if v := victim.Load(); v != nil {
					v.Abandon()
				}
			}
			args[0] = 0
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 4, MaxConsecutiveTimeouts: 4, ProbeAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	initial := make([]*Client, 5)
	for i := range initial {
		initial[i] = sys.NewClientOnShard(0)
	}
	var created atomic.Int64
	created.Store(int64(len(initial)))
	fn, gate := FaultWhile(FaultAbandonEvery(50, initial))
	sys.InjectFault(FaultSiteHandler, fn)
	var scavN atomic.Int64
	sys.InjectFault(FaultSiteScavenge, func() error {
		if scavN.Add(1)%3 == 0 {
			time.Sleep(time.Millisecond) // one tick of chaosSystem: dead, and nothing reclaimed yet
		}
		return nil
	})

	stormOK := func(err error) bool {
		return err == nil || errors.Is(err, ErrClientAbandoned) ||
			errors.Is(err, ErrDeadline) || errors.Is(err, ErrServiceUnhealthy) ||
			errors.Is(err, ErrBackpressure) || errors.Is(err, ErrArenaFull)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Leg 4's clients die from outside, mid-entry: this goroutine abandons
	// whichever one the leg is calling on, so the death lands anywhere
	// between the deadline path's life check and its handoff.
	var mark atomic.Pointer[Client]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := mark.Swap(nil); v != nil {
				v.Abandon()
			}
			runtime.Gosched()
		}
	}()
	for g := range initial {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := initial[g]
			// The final identity dies too: the convergence check below
			// wants every created client declared dead. It dies holding a
			// descriptor and an unattached lease, so a reap has at least
			// these to reclaim: the storm's clients die microseconds after
			// they are made, most of them before their first hold, and on
			// two processors a 50 ms storm can starve one leg outright —
			// one run in fifteen used to end with no held descriptor, or no
			// tracked lease, left for a reap at all.
			defer func() {
				c.Hold()
				_, _, _ = c.AllocPayload(64)
				c.Abandon()
			}()
			b := c.NewBatch(svc.EP(), 4)
			var args Args
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch g {
				case 0: // held sync calls carrying arena leases
					if i%41 == 40 {
						// Die holding a tracked (unattached) lease: the
						// reap, not a call, must return it.
						_, _, _ = c.AllocPayload(64)
						c.Abandon()
						continue
					}
					ref, buf, aerr := c.AllocPayload(512)
					if aerr == nil {
						buf[0] = byte(i)
						args = Args{}
						args.AttachPayload(ref)
						err = c.Call(svc.EP(), &args)
					} else {
						err = aerr
					}
				case 1: // deadline calls; every few iterations an orphan
					args = Args{}
					if i%7 == 0 {
						args[0] = 1
					}
					err = c.CallDeadline(svc.EP(), &args, time.Duration(150+i%300)*time.Microsecond)
				case 4: // deadline calls on a client another goroutine is abandoning
					args = Args{}
					if i%5 == 0 {
						args[0] = 1
					}
					if i%3 == 0 {
						mark.Store(c)
					}
					err = c.CallDeadline(svc.EP(), &args, time.Duration(150+i%300)*time.Microsecond)
				case 2: // payload batches through the staged path
					staged := 0
					for k := 0; k < 3; k++ {
						ref, _, aerr := c.AllocPayload(128)
						if aerr != nil {
							continue
						}
						args = Args{}
						args.AttachPayload(ref)
						b.Add(&args)
						staged++
					}
					if staged > 0 {
						if i%37 == 36 {
							// Die with the batch staged and unflushed: the
							// reap drains the staged leases' slots.
							c.Abandon()
							continue
						}
						_, err = b.Flush()
					}
				default: // plain calls; periodic suicide-by-handler
					args = Args{}
					if i%25 == 0 {
						victim.Store(c)
						args[0] = 2
					}
					err = c.Call(svc.EP(), &args)
					if i%101 == 100 {
						c.Abandon() // between-calls death: the entry life-check decline mode
					}
				}
				if err != nil && errors.Is(err, ErrClientAbandoned) {
					// Domain death observed: recycle the identity, exactly
					// what a real caller does after losing its client.
					c = sys.NewClientOnShard(0)
					created.Add(1)
					b = c.NewBatch(svc.EP(), 4)
					continue
				}
				if !stormOK(err) {
					t.Errorf("storm goroutine %d: unexpected %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	gate.Store(false)
	sys.ClearFaults()

	// The tentpole's convergence contract. HeldCDs == 0 and
	// QuarantinedCDs == 0 together are the pool-at-capacity check: every
	// descriptor a dead client ever held is back on the free list or
	// condemned and replaced (one left in its slot would hold HeldCDs
	// above zero forever).
	waitCond(t, 10*time.Second, "domain-death convergence", func() bool {
		st := sys.Stats()[0]
		return st.LeasesActive == 0 && st.HeldCDs == 0 && st.QuarantinedCDs == 0
	})
	st := sys.Stats()[0]
	if got, want := st.AbandonedClients, created.Load(); got != want {
		t.Fatalf("AbandonedClients = %d, created %d — a death was lost or double-counted", got, want)
	}
	if st.TombstonedCompletions == 0 {
		t.Fatal("storm never exercised the tombstone completion path")
	}
	if st.ScavengedCDs == 0 || st.ScavengedLeases == 0 {
		t.Fatalf("no reap found anything to reclaim through the storm: %+v", st)
	}
	chaosConverge(t, sys, svc, base)
}

// TestChaosBackpressure: submissions are rejected as backpressure for
// the whole storm. Callers see clean ErrBackpressure (retryable), and
// the system heals instantly when the pressure lifts.
func TestChaosBackpressure(t *testing.T) {
	base := chaosBaseline()
	sys := chaosSystem()
	svc := chaosBind(t, sys)
	sys.InjectFault(FaultSiteSubmit, FaultErrFirst(1<<30, ErrBackpressure))
	rejects := 0
	c := sys.NewClientOnShard(0)
	var args Args
	for i := 0; i < 200; i++ {
		if err := c.AsyncCall(svc.EP(), &args); errors.Is(err, ErrBackpressure) {
			rejects++
		} else if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	c.Release()
	if rejects != 200 {
		t.Fatalf("rejects = %d, want all 200", rejects)
	}
	if sys.Stats()[0].BackpressureRejects != 200 {
		t.Fatalf("BackpressureRejects = %d", sys.Stats()[0].BackpressureRejects)
	}
	chaosConverge(t, sys, svc, base)
}

// TestChaosLaneStorm: a best-effort flood — some of it carrying
// payload leases — saturates a lane-configured shard while every
// dispatch stalls (stuck-worker chaos, replacements spawning), and a
// critical caller keeps submitting through the same rings. Shedding
// must follow criticality downward: best-effort sheds in volume,
// critical is never rejected at all. When the storm ends the shard
// converges with zero leaked leases and zero quarantined descriptors.
func TestChaosLaneStorm(t *testing.T) {
	base := chaosBaseline()
	sys := NewSystemOptions(Options{
		Shards:               1,
		Lanes:                3,
		AsyncQueueCap:        16,
		WorkerStallThreshold: 2 * time.Millisecond,
		WatchdogInterval:     time.Millisecond,
	})
	svc := chaosBind(t, sys)
	fn, gate := FaultWhile(FaultStallFirst(1<<30, 200*time.Microsecond))
	sys.InjectFault(FaultSiteHandler, fn)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var beShed, beAccepted atomic.Int64
	// Four best-effort flooders; one attaches payload leases so a shed
	// request exercises the release-at-admission path under load.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})
			defer c.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var args Args
				if g == 0 {
					if ref, buf, err := c.AllocPayload(128); err == nil {
						buf[0] = byte(g)
						args.AttachPayload(ref)
					}
				}
				switch err := c.AsyncCall(svc.EP(), &args); {
				case err == nil:
					beAccepted.Add(1)
				case errors.Is(err, ErrShed):
					beShed.Add(1)
				case errors.Is(err, ErrServiceUnhealthy) || errors.Is(err, ErrBackpressure):
					// gate/replacement churn — tolerated storm noise
				default:
					t.Errorf("best-effort flooder %d: unexpected %v", g, err)
					return
				}
			}
		}(g)
	}
	// One critical caller, one request outstanding at a time: its lane
	// drains first and never fills, so every submission must be
	// accepted even at full best-effort saturation.
	wg.Add(1)
	var critCalls atomic.Int64
	go func() {
		defer wg.Done()
		c := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
		defer c.Release()
		done := make(chan struct{}, 1)
		var args Args
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.AsyncCallNotify(svc.EP(), &args, done); err != nil {
				t.Errorf("critical submission rejected mid-storm: %v", err)
				return
			}
			critCalls.Add(1)
			<-done
		}
	}()
	// Run the storm until both signals have fired: a best-effort shed
	// (the flood saturated its lane) and a critical completion (the
	// caller got through anyway). A fixed sleep is flaky on a one-P
	// race box — four CPU-bound flooders can consume the whole window
	// before the critical goroutine is ever scheduled.
	stormDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(stormDeadline) &&
		(beShed.Load() == 0 || critCalls.Load() == 0) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	gate.Store(false)

	if beShed.Load() == 0 {
		t.Fatal("best-effort flood never saturated its lane")
	}
	if critCalls.Load() == 0 {
		t.Fatal("critical caller made no progress")
	}
	st := sys.Stats()[0]
	if st.ShedByLane[0] != 0 {
		t.Fatalf("critical lane shed %d requests during a best-effort storm", st.ShedByLane[0])
	}
	if st.ShedByLane[2] == 0 {
		t.Fatalf("best-effort sheds not counted: %+v", st)
	}
	// Lease and descriptor convergence before the probe run: everything
	// shed at admission returned its payload lease, and nothing the
	// storm dispatched orphaned a descriptor.
	waitCond(t, 5*time.Second, "lane drain and lease convergence", func() bool {
		st := sys.Stats()[0]
		return st.AsyncQueueDepth == 0 && st.LeasesActive == 0 && st.QuarantinedCDs == 0
	})
	chaosConverge(t, sys, svc, base)
}
