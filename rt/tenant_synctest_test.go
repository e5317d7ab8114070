//go:build goexperiment.synctest

package rt

import (
	"errors"
	"testing"
	"testing/synctest"
	"time"
)

// Fake-clock twins of the wall-clock tests: inside synctest.Run, time
// moves only when every goroutine of the bubble is blocked, so a bucket's
// refill is exact, not a band. Build and run them with
// GOEXPERIMENT=synctest (make synctest). Go 1.25 replaces synctest.Run
// with synctest.Test; this file keeps the Go 1.24 form of the toolchain
// go.mod names.

// newFakeTenant builds a one-shard System with tenant 1 at Rate 1000
// (one token per fake millisecond) and the given burst. It must run
// inside the bubble, so the bucket's cursor reads the fake clock.
func newFakeTenant(t *testing.T, burst int) (*System, *Service) {
	sys := newSystem(t, Options{Shards: 1})
	svc := bindNull(t, sys, "fake")
	if err := sys.ConfigureTenant(1, TenantConfig{Rate: 1000, Burst: burst}); err != nil {
		t.Fatal(err)
	}
	return sys, svc
}

// drainFake calls as tenant 1 until the first shed and returns how many
// calls were admitted.
func drainFake(t *testing.T, c *Client, svc *Service) int {
	n := 0
	for {
		err := c.Call(svc.EP(), &Args{})
		if errors.Is(err, ErrShed) {
			return n
		}
		if err != nil {
			t.Error(err)
			return n
		}
		n++
	}
}

// TestTenantRefillSynctest pins the lazy refill's arithmetic at Rate
// 1000/Burst 2: calling to exhaustion once per millisecond admits the
// burst and then one call per elapsed millisecond — exactly 101 over
// 100 ms — and after a further 50 ms idle the bucket holds exactly its
// burst, not the 50 ms of credit.
func TestTenantRefillSynctest(t *testing.T) {
	synctest.Run(func() {
		const burst = 2
		sys, svc := newFakeTenant(t, burst)
		defer sys.Close()
		c := sys.NewClientWith(ClientOptions{Tenant: 1})
		defer c.Release()
		admitted := 0
		for ms := 0; ms < 100; ms++ {
			admitted += drainFake(t, c, svc)
			time.Sleep(time.Millisecond)
		}
		if admitted != 101 {
			t.Errorf("%d admitted in 100 fake ms at 1000/s, burst %d; want exactly 101", admitted, burst)
		}
		time.Sleep(50 * time.Millisecond)
		if got := drainFake(t, c, svc); got != burst {
			t.Errorf("%d admitted after 50 fake ms idle; want exactly the burst, %d", got, burst)
		}
	})
}

// TestTenantIdleFullSynctest pins Burst's contract from a full bucket:
// a tenant configured and then left idle for 50 fake ms admits exactly
// its burst back-to-back — the credit its full bucket could not hold is
// gone, not paid out by the first throttled call's refill — and one
// millisecond after the call that took the bucket off full, exactly one
// more.
func TestTenantIdleFullSynctest(t *testing.T) {
	synctest.Run(func() {
		const burst = 2
		sys, svc := newFakeTenant(t, burst)
		defer sys.Close()
		c := sys.NewClientWith(ClientOptions{Tenant: 1})
		defer c.Release()
		time.Sleep(50 * time.Millisecond)
		if got := drainFake(t, c, svc); got != burst {
			t.Errorf("%d admitted back-to-back from a bucket full for 50 fake ms; want exactly the burst, %d", got, burst)
		}
		time.Sleep(time.Millisecond)
		if got := drainFake(t, c, svc); got != 1 {
			t.Errorf("%d admitted 1 fake ms after the drain; want exactly 1", got)
		}
	})
}

// TestTenantConcurrentRefillSynctest is the refill's race at exact
// arithmetic: four goroutines, each with its own client of the shared
// tenant, call to exhaustion once per fake millisecond, so every
// millisecond's one credit is fought over by four throttled refillers.
// The cursor CAS elects one creditor per interval: exactly 101 calls are
// admitted over 100 ms, as with one caller. A lost or duplicated cursor
// update credits an interval twice and over-admits. A credit can be left
// behind when every racer sheds on another's transient decrement, so a
// last drain at the same fake instant collects what the race stranded.
func TestTenantConcurrentRefillSynctest(t *testing.T) {
	synctest.Run(func() {
		const burst, callers, window = 2, 4, 1000
		sys, svc := newFakeTenant(t, burst)
		defer sys.Close()
		done := make(chan int)
		for range callers {
			go func() {
				c := sys.NewClientWith(ClientOptions{Tenant: 1})
				defer c.Release()
				n := 0
				for ms := 0; ms < window; ms++ {
					if ms > 0 {
						time.Sleep(time.Millisecond)
					}
					n += drainFake(t, c, svc)
				}
				done <- n
			}()
		}
		admitted := 0
		for range callers {
			admitted += <-done
		}
		c := sys.NewClientWith(ClientOptions{Tenant: 1})
		defer c.Release()
		admitted += drainFake(t, c, svc)
		if want := burst + window - 1; admitted != want {
			t.Errorf("%d admitted in %d fake ms by %d callers at 1000/s, burst %d; want exactly %d", admitted, window, callers, burst, want)
		}
	})
}
