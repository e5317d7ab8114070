package rt

import (
	"errors"
	"testing"
	"time"
)

func TestHealthGateTripsOnConsecutiveFaults(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "flappy",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 3, ProbeAfter: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var bad Args
	bad[0] = 1
	for i := 0; i < 3; i++ {
		if err := c.Call(svc.EP(), &bad); !errors.Is(err, ErrServerFault) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Gate is open: calls shed without reaching the handler.
	var good Args
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("err = %v, want ErrServiceUnhealthy", err)
	}
	if svc.HealthTrips() != 1 {
		t.Fatalf("HealthTrips = %d", svc.HealthTrips())
	}
	if svc.ShedCalls() == 0 {
		t.Fatal("shed calls not counted")
	}
	if svc.Healthy() {
		t.Fatal("Healthy() with an open gate")
	}
	// After ProbeAfter, one probe goes through; success recovers.
	time.Sleep(10 * time.Millisecond)
	if err := c.Call(svc.EP(), &good); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if svc.HealthRecovers() != 1 {
		t.Fatalf("HealthRecovers = %d", svc.HealthRecovers())
	}
	if !svc.Healthy() {
		t.Fatal("gate did not close after a successful probe")
	}
	if err := c.Call(svc.EP(), &good); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
	stats := sys.Stats()[0]
	if stats.HealthTrips != 1 || stats.HealthRecovers != 1 || stats.ShedCalls == 0 {
		t.Fatalf("shard stats missing health counters: %+v", stats)
	}
}

func TestHealthGateFailedProbeReopens(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "stillbad",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("still boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var bad Args
	bad[0] = 1
	for i := 0; i < 2; i++ {
		if err := c.Call(svc.EP(), &bad); !errors.Is(err, ErrServerFault) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	// The probe itself faults: back to degraded, no recovery counted.
	if err := c.Call(svc.EP(), &bad); !errors.Is(err, ErrServerFault) {
		t.Fatalf("probe: %v", err)
	}
	var good Args
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("after failed probe: %v, want shed", err)
	}
	if svc.HealthRecovers() != 0 {
		t.Fatalf("HealthRecovers = %d after failed probe", svc.HealthRecovers())
	}
	// Eventually a good probe closes it.
	time.Sleep(5 * time.Millisecond)
	if err := c.Call(svc.EP(), &good); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if !svc.Healthy() {
		t.Fatal("gate still open after successful probe")
	}
}

func TestHealthGateSuccessResetsRun(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "mixed",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var bad, good Args
	bad[0] = 1
	// Interleaved successes keep breaking the run: the gate never trips.
	for i := 0; i < 10; i++ {
		c.Call(svc.EP(), &bad)
		c.Call(svc.EP(), &bad)
		if err := c.Call(svc.EP(), &good); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if svc.HealthTrips() != 0 {
		t.Fatalf("HealthTrips = %d, want 0 with broken runs", svc.HealthTrips())
	}
}

func TestHealthGateIsPerShard(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 2})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "striped",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	c0 := sys.NewClientWith(ClientOptions{})
	c1 := sys.NewClientWith(ClientOptions{Shard: 1})
	defer c0.Release()
	defer c1.Release()
	var bad, good Args
	bad[0] = 1
	c0.Call(svc.EP(), &bad)
	c0.Call(svc.EP(), &bad)
	if err := c0.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("shard 0: %v, want shed", err)
	}
	// Shard 1's stripe is untouched.
	if err := c1.Call(svc.EP(), &good); err != nil {
		t.Fatalf("shard 1: %v, want healthy", err)
	}
	s := sys.Stats()
	if s[0].HealthTrips != 1 || s[1].HealthTrips != 0 {
		t.Fatalf("trips = %d/%d, want striped", s[0].HealthTrips, s[1].HealthTrips)
	}
}

func TestHealthGateGatesAsyncAndBatch(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "agate",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var bad Args
	bad[0] = 1
	c.Call(svc.EP(), &bad)
	c.Call(svc.EP(), &bad)
	var good Args
	if err := c.AsyncCall(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("async: %v, want shed", err)
	}
	b := c.NewBatch(svc.EP(), 2)
	b.Add(&good)
	if n, err := b.Flush(); !errors.Is(err, ErrServiceUnhealthy) || n != 0 {
		t.Fatalf("batch: %d, %v, want shed", n, err)
	}
	if err := c.CallPooled(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("pooled: %v, want shed", err)
	}
	if err := c.CallDeadline(svc.EP(), &good, time.Second); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("deadline: %v, want shed", err)
	}
}

func TestHealthGateTripsOnConsecutiveTimeouts(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	block := make(chan struct{})
	svc, err := sys.Bind(ServiceConfig{
		Name:    "tslow",
		Handler: func(ctx *Ctx, args *Args) { <-block },
		Health:  &HealthConfig{MaxConsecutiveTimeouts: 2, ProbeAfter: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	c := sys.NewClientWith(ClientOptions{})
	var args Args
	for i := 0; i < 2; i++ {
		if err := c.CallDeadline(svc.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := c.CallDeadline(svc.EP(), &args, time.Millisecond); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("after timeout run: %v, want shed", err)
	}
	if svc.HealthTrips() != 1 {
		t.Fatalf("HealthTrips = %d", svc.HealthTrips())
	}
}

// A probe whose async submission is rejected (here: injected
// backpressure — the most plausible case, since a gate tripped by
// overload implies a full ring) produces no health evidence; the gate
// must settle by the probe's lease instead of shedding forever from an
// unsettled half-open state, and a later clean probe must recover it.
func TestHealthGateRejectedProbeSettles(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name: "rejectedprobe",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var bad, good Args
	bad[0] = 1
	c.Call(svc.EP(), &bad)
	c.Call(svc.EP(), &bad)
	if svc.Healthy() {
		t.Fatal("gate did not trip")
	}
	// Every submission now bounces with ErrBackpressure.
	sys.InjectFault(faultSiteSubmit, FaultErrFirst(1<<30, ErrBackpressure))
	time.Sleep(60 * time.Millisecond)
	// This async call wins the probe election and is rejected before it
	// reaches the ring: no worker will ever settle it.
	if err := c.AsyncCall(svc.EP(), &good); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("probe submission: %v, want ErrBackpressure", err)
	}
	// Within the probe's lease calls shed, after it a clean probe takes
	// over and recovers.
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("inside the probe's lease: %v, want shed", err)
	}
	sys.ClearFaults()
	time.Sleep(60 * time.Millisecond)
	if err := c.Call(svc.EP(), &good); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if !svc.Healthy() {
		t.Fatal("gate stuck open after rejected probe (half-open never settled)")
	}
}

// A probe denied by authorization carries no health evidence either
// (recordOutcome ignores ErrPermissionDenied); the probe's lease must
// expire so an authorized probe can take over and recover the gate.
func TestHealthGateDeniedProbeSettles(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	var allowed uint32
	svc, err := sys.Bind(ServiceConfig{
		Name: "deniedprobe",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				panic("boom")
			}
		},
		Authorize: func(p uint32) bool { return p == allowed },
		Health:    &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	insider := sys.NewClientWith(ClientOptions{})
	outsider := sys.NewClientWith(ClientOptions{})
	defer insider.Release()
	defer outsider.Release()
	allowed = insider.Program()
	var bad, good Args
	bad[0] = 1
	insider.Call(svc.EP(), &bad)
	insider.Call(svc.EP(), &bad)
	if svc.Healthy() {
		t.Fatal("gate did not trip")
	}
	time.Sleep(60 * time.Millisecond)
	// The outsider wins the probe election and is denied: no evidence,
	// and the gate sheds until the probe's lease expires.
	if err := outsider.Call(svc.EP(), &good); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("denied probe: %v, want ErrPermissionDenied", err)
	}
	if err := insider.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("inside the probe's lease: %v, want shed", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := insider.Call(svc.EP(), &good); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if !svc.Healthy() {
		t.Fatal("gate stuck open after denied probe")
	}
}

// The probe lease: a half-open stripe whose probe exited with no
// evidence (its submission rejected, its dispatch denied, or an accepted
// async probe discarded by a hard kill on the worker side) must elect a
// new probe once the lease expires, instead of shedding forever.
func TestHealthGateProbeLeaseTakeover(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{
		Name:    "stuckopen",
		Handler: func(ctx *Ctx, args *Args) {},
		Health:  &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	cs := &svc.perShard[0]
	var args Args
	// Live lease: the stripe sheds.
	cs.healthState.Store(gateHalfOpen)
	cs.reopenAt.Store(time.Now().Add(time.Minute).UnixNano())
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("live lease: %v, want shed", err)
	}
	// Expired lease: the caller takes over as the probe and recovers.
	cs.reopenAt.Store(time.Now().Add(-time.Millisecond).UnixNano())
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatalf("takeover probe: %v", err)
	}
	if !svc.Healthy() {
		t.Fatal("takeover probe success did not close the gate")
	}
}

func TestHealthDisabledByDefault(t *testing.T) {
	sys := NewSystemOptions(Options{Shards: 1})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "nogate", Handler: func(ctx *Ctx, args *Args) {
		panic("always")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	// No gate: faults forever, never shed.
	for i := 0; i < 50; i++ {
		if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrServerFault) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if svc.HealthTrips() != 0 || svc.ShedCalls() != 0 {
		t.Fatal("ungated service recorded health activity")
	}
}
