package rt

import (
	"sync/atomic"
	"time"
)

// The fault-injection control plane and the deterministic hooks rt's
// tests install with it (the sites are in faultinject.go).

// InjectFault installs fn at site (nil removes it). Installation is
// safe mid-traffic: calls already past the site's check complete
// uninstrumented.
func (s *System) InjectFault(site faultSite, fn faultFn) {
	if site >= faultSiteCount {
		panic("rt: unknown fault site")
	}
	if fn == nil {
		s.fhooks.fns[site].Store(nil)
	} else {
		s.fhooks.fns[site].Store(&fn)
	}
	any := false
	for i := range s.fhooks.fns {
		if s.fhooks.fns[i].Load() != nil {
			any = true
			break
		}
	}
	s.fhooks.active.Store(any)
}

// ClearFaults removes every installed hook.
func (s *System) ClearFaults() {
	for i := range s.fhooks.fns {
		s.fhooks.fns[i].Store(nil)
	}
	s.fhooks.active.Store(false)
}

// FaultPanicEvery returns a deterministic hook that panics with val on
// every n-th invocation (n <= 1 panics every time).
func FaultPanicEvery(n int64, val any) faultFn {
	var count atomic.Int64
	return func() error {
		if c := count.Add(1); n <= 1 || c%n == 0 {
			panic(val)
		}
		return nil
	}
}

// FaultStallFirst returns a deterministic hook that sleeps d on each
// of the first n invocations, then becomes a no-op.
func FaultStallFirst(n int64, d time.Duration) faultFn {
	var count atomic.Int64
	return func() error {
		if count.Add(1) <= n {
			time.Sleep(d)
		}
		return nil
	}
}

// FaultErrFirst returns a deterministic hook that returns err on each
// of the first n invocations, then nil forever (faultSiteSubmit: the
// first n submissions are rejected as backpressure).
func FaultErrFirst(n int64, err error) faultFn {
	var count atomic.Int64
	return func() error {
		if count.Add(1) <= n {
			return err
		}
		return nil
	}
}

// FaultAbandonEvery returns a deterministic hook that abandons one
// client drawn round-robin from clients on every n-th invocation (n <=
// 1 abandons on every call). Install it at a warm site
// (faultSiteHandler, faultSiteArena) to kill clients mid-call /
// mid-payload-lease, the abandon-mid-operation combinator the
// domain-death storm drives; each client is abandoned at most once
// (Abandon is idempotent), so the hook goes quiet after one full
// round.
func FaultAbandonEvery(n int64, clients []*Client) faultFn {
	var count atomic.Int64
	var next atomic.Int64
	return func() error {
		if len(clients) == 0 {
			return nil
		}
		if c := count.Add(1); n <= 1 || c%n == 0 {
			clients[int(next.Add(1)-1)%len(clients)].Abandon()
		}
		return nil
	}
}

// FaultWhile returns a hook that defers to inner while gate reports
// true, plus the gate itself (start open). Chaos tests flip the gate
// off to end a storm at a deterministic point in the test, not a
// wall-clock one.
func FaultWhile(inner faultFn) (fn faultFn, gate *atomic.Bool) {
	gate = new(atomic.Bool)
	gate.Store(true)
	return func() error {
		if gate.Load() {
			return inner()
		}
		return nil
	}, gate
}
