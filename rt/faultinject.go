package rt

import (
	"sync/atomic"
	"time"
)

// Deterministic fault injection. Robustness claims, like perf claims,
// rot unless they are measured — the FreeBSD IPC study (arXiv:
// 2008.02145) makes the point that IPC behavior under fault must be
// observed, not assumed. This file is the always-compiled half: a
// registry of per-site hooks on the System, checked behind one atomic
// bool so an un-instrumented system pays a single predictable branch
// per guarded site. The hooks are deterministic by construction —
// helpers below count invocations instead of rolling dice — so a chaos
// test that fails replays identically.
//
// The second half lives behind the `faultinject` build tag
// (faultinject_on.go): the ring-publish delay site sits between the
// ticket CAS and the sequence store on the hottest path in the
// package, so its guard is a compile-time constant that normal builds
// fold away entirely.
//
// Sites:
//
//	FaultSiteHandler     — fired inside the panic-containment scope,
//	                       just before the handler body. A hook that
//	                       panics is a handler panic; a hook that
//	                       sleeps is a stuck handler.
//	FaultSiteSubmit      — fired at async submission; a non-nil error
//	                       forces ErrBackpressure before the ring is
//	                       touched.
//	FaultSiteRingPublish — (faultinject builds only) fired between a
//	                       producer's ticket CAS and its sequence
//	                       publish: the window a stalled producer
//	                       leaves the ring non-empty but unpublished.
//	FaultSiteArena       — (faultinject builds only) fired at payload
//	                       allocation/attach (AllocPayload,
//	                       AttachBytes); a non-nil error fails the
//	                       allocation before the arena is touched, so
//	                       chaos tests can starve the payload path
//	                       deterministically.
//	FaultSiteScavenge    — (faultinject builds only) fired at the top of
//	                       each dead client's reap (owner.go), on the
//	                       goroutine that declared the death. The return
//	                       value is ignored; a hook that sleeps stretches
//	                       the window in which the client is dead and
//	                       nothing of it is reclaimed yet.

// FaultSite names an injection point.
type FaultSite uint8

const (
	// FaultSiteHandler fires inside dispatch's containment scope,
	// before the handler body.
	FaultSiteHandler FaultSite = iota
	// FaultSiteSubmit fires at asynchronous submission, before the ring
	// push; a non-nil return forces ErrBackpressure (ErrClosed once closed).
	FaultSiteSubmit
	// FaultSiteRingPublish fires between the ring ticket CAS and the
	// sequence publish. Only honored in -tags faultinject builds.
	FaultSiteRingPublish
	// FaultSiteArena fires at payload allocation (Client.AllocPayload,
	// Client.AttachBytes) before the arena is touched; a non-nil error
	// fails the allocation with that error. Only honored in
	// -tags faultinject builds.
	FaultSiteArena
	// FaultSiteScavenge fires at the top of each dead client's reap; the
	// return value is ignored (sleep to delay the reclaim). Only honored
	// in -tags faultinject builds.
	FaultSiteScavenge
	faultSiteCount
)

// FaultFn is an injection hook. Semantics depend on the site: at
// FaultSiteHandler the return value is ignored (panic or sleep to
// inject); at FaultSiteSubmit a non-nil error rejects the submission
// with ErrBackpressure; at FaultSiteRingPublish the return value is
// ignored (sleep to delay the publish); at FaultSiteArena a non-nil
// error fails the payload allocation with that error; at
// FaultSiteScavenge the return value is ignored (sleep to delay the
// reclaim).
type FaultFn func() error

// faultHooks is the per-System registry. active is the one word the
// fast paths load; it is true iff any site has a hook installed.
type faultHooks struct {
	//ppc:atomic
	active atomic.Bool
	// fns holds the per-site hooks. Not annotated //ppc:atomic: the
	// analyzer reads array indexing as a plain field access, and the
	// element type (atomic.Pointer) already makes non-atomic use
	// unrepresentable.
	fns [faultSiteCount]atomic.Pointer[FaultFn]
}

// InjectFault installs fn at site (nil removes it). Installation is
// safe mid-traffic: calls already past the site's check complete
// uninstrumented. Intended for tests and chaos drills.
//
//ppc:coldpath -- test instrumentation control plane
func (s *System) InjectFault(site FaultSite, fn FaultFn) {
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
//
//ppc:coldpath -- test instrumentation control plane
func (s *System) ClearFaults() {
	for i := range s.fhooks.fns {
		s.fhooks.fns[i].Store(nil)
	}
	s.fhooks.active.Store(false)
}

// fireFault runs the hook at site, if one is installed. The
// no-hook cost is one atomic bool load; the hook call itself is a
// dynamic call the hot-path analysis treats as a boundary.
//
//ppc:hotpath
func (s *System) fireFault(site FaultSite) error {
	if !s.fhooks.active.Load() {
		return nil
	}
	return s.fireFaultSlow(site)
}

// fireFaultSlow loads and runs the per-site hook.
//
//ppc:coldpath -- instrumentation is installed; determinism beats speed here
func (s *System) fireFaultSlow(site FaultSite) error {
	fn := s.fhooks.fns[site].Load()
	if fn == nil {
		return nil
	}
	return (*fn)()
}

// FaultPanicEvery returns a deterministic hook that panics with val on
// every n-th invocation (n <= 1 panics every time).
func FaultPanicEvery(n int64, val any) FaultFn {
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
func FaultStallFirst(n int64, d time.Duration) FaultFn {
	var count atomic.Int64
	return func() error {
		if count.Add(1) <= n {
			time.Sleep(d)
		}
		return nil
	}
}

// FaultErrFirst returns a deterministic hook that returns err on each
// of the first n invocations, then nil forever (FaultSiteSubmit: the
// first n submissions are rejected as backpressure).
func FaultErrFirst(n int64, err error) FaultFn {
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
// (FaultSiteHandler, FaultSiteArena) to kill clients mid-call /
// mid-payload-lease, the abandon-mid-operation combinator the
// domain-death storm drives; each client is abandoned at most once
// (Abandon is idempotent), so the hook goes quiet after one full
// round.
func FaultAbandonEvery(n int64, clients []*Client) FaultFn {
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
func FaultWhile(inner FaultFn) (fn FaultFn, gate *atomic.Bool) {
	gate = new(atomic.Bool)
	gate.Store(true)
	return func() error {
		if gate.Load() {
			return inner()
		}
		return nil
	}, gate
}
