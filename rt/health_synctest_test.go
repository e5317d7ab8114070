//go:build goexperiment.synctest

package rt

import (
	"errors"
	"testing"
	"testing/synctest"
	"time"
)

// TestHealthProbeLeaseSynctest pins when a probe that exits with no
// evidence lets the gate re-open: at its election plus ProbeAfter, by the
// lease, not at its exit plus ProbeAfter. The gate trips; 10 fake ms
// later an async call is elected probe and its submission stalls 6 fake
// ms in the submit hook before it is refused. A call at election + 9 ms
// is shed, and the call at election + 10 ms takes the probe over and
// closes the gate.
func TestHealthProbeLeaseSynctest(t *testing.T) {
	synctest.Run(func() {
		const probeAfter = 10 * time.Millisecond
		sys := NewSystemOptions(Options{Shards: 1})
		defer sys.Close()
		svc, err := sys.Bind(ServiceConfig{
			Name: "lease",
			Handler: func(ctx *Ctx, args *Args) {
				if args[0] == 1 {
					panic("boom")
				}
			},
			Health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: probeAfter},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := sys.NewClientWith(ClientOptions{})
		defer c.Release()
		for i := 0; i < 2; i++ {
			if err := c.Call(svc.EP(), &Args{1}); !errors.Is(err, ErrServerFault) {
				t.Fatalf("tripping call: %v", err)
			}
		}
		if svc.Healthy() {
			t.Fatal("gate did not trip")
		}
		time.Sleep(probeAfter)
		election := time.Now()
		sys.InjectFault(faultSiteSubmit, func() error {
			time.Sleep(6 * time.Millisecond)
			return ErrBackpressure
		})
		if err := c.AsyncCall(svc.EP(), &Args{}); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("probe submission: %v, want ErrBackpressure", err)
		}
		sys.ClearFaults()
		time.Sleep(time.Until(election.Add(probeAfter - time.Millisecond)))
		if err := c.Call(svc.EP(), &Args{}); !errors.Is(err, ErrServiceUnhealthy) {
			t.Errorf("call at election + %v: %v, want shed inside the probe's lease", time.Since(election), err)
		}
		time.Sleep(time.Millisecond)
		if err := c.Call(svc.EP(), &Args{}); err != nil {
			t.Errorf("call at election + %v: %v, want it to take the expired lease over", time.Since(election), err)
		}
		if !svc.Healthy() || svc.HealthRecovers() != 1 {
			t.Errorf("healthy %v, HealthRecovers %d after the takeover probe succeeded", svc.Healthy(), svc.HealthRecovers())
		}
	})
}
