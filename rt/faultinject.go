package rt

import "sync/atomic"

// Deterministic fault injection. Robustness claims, like perf claims,
// rot unless they are measured — the FreeBSD IPC study (arXiv:
// 2008.02145) makes the point that IPC behavior under fault must be
// observed, not assumed. This file is the always-compiled half: a
// registry of per-site hooks on the System, checked behind one atomic
// bool so an un-instrumented system pays a single predictable branch
// per guarded site. Only rt's own tests install hooks
// (System.InjectFault, faultfn_test.go); nothing is exported. The hooks
// are deterministic by construction — the test helpers count
// invocations instead of rolling dice — so a chaos test that fails
// replays identically.
//
// The second half lives behind the `faultinject` build tag
// (faultinject_on.go): the ring-publish delay site sits between the
// ticket CAS and the sequence store on the hottest path in the
// package, so its guard is a compile-time constant that normal builds
// fold away entirely; the arena and scavenge sites sit behind the same
// constant.

// faultSite names an injection point.
type faultSite uint8

const (
	// faultSiteHandler fires inside dispatch's containment scope,
	// before the handler body: a hook that panics is a handler panic, a
	// hook that sleeps a stuck handler.
	faultSiteHandler faultSite = iota
	// faultSiteSubmit fires at asynchronous submission, before the ring
	// push; a non-nil return forces ErrBackpressure (ErrClosed once closed).
	faultSiteSubmit
	// faultSiteRingPublish fires between the ring ticket CAS and the
	// sequence publish: the window a stalled producer leaves the ring
	// non-empty but unpublished. Only honored in -tags faultinject
	// builds.
	faultSiteRingPublish
	// faultSiteArena fires at payload allocation (Client.AllocPayload,
	// Client.AttachBytes) before the arena is touched; a non-nil error
	// fails the allocation with that error. Only honored in
	// -tags faultinject builds.
	faultSiteArena
	// faultSiteScavenge fires at the top of each dead client's reap
	// (owner.go), on the goroutine that declared the death; the return
	// value is ignored (sleep to stretch the window in which the client
	// is dead and nothing of it is reclaimed yet). Only honored in
	// -tags faultinject builds.
	faultSiteScavenge
	faultSiteCount
)

// faultFn is an injection hook. Semantics depend on the site: at
// faultSiteHandler the return value is ignored (panic or sleep to
// inject); at faultSiteSubmit a non-nil error rejects the submission
// with ErrBackpressure; at faultSiteRingPublish the return value is
// ignored (sleep to delay the publish); at faultSiteArena a non-nil
// error fails the payload allocation with that error; at
// faultSiteScavenge the return value is ignored (sleep to delay the
// reclaim).
type faultFn func() error

// faultHooks is the per-System registry. active is the one word the
// fast paths load; it is true iff any site has a hook installed.
type faultHooks struct {
	//ppc:atomic
	active atomic.Bool
	// fns holds the per-site hooks. Not annotated //ppc:atomic: the
	// analyzer reads array indexing as a plain field access, and the
	// element type (atomic.Pointer) already makes non-atomic use
	// unrepresentable.
	fns [faultSiteCount]atomic.Pointer[faultFn]
}

// fireFault runs the hook at site, if one is installed. The
// no-hook cost is one atomic bool load; the hook call itself is a
// dynamic call the hot-path analysis treats as a boundary.
//
//ppc:hotpath
func (s *System) fireFault(site faultSite) error {
	if !s.fhooks.active.Load() {
		return nil
	}
	return s.fireFaultSlow(site)
}

// fireFaultSlow loads and runs the per-site hook.
//
//ppc:coldpath -- instrumentation is installed; determinism beats speed here
func (s *System) fireFaultSlow(site faultSite) error {
	fn := s.fhooks.fns[site].Load()
	if fn == nil {
		return nil
	}
	return (*fn)()
}
