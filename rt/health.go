package rt

import "time"

// Per-service health gating — the containment half of the robustness
// layer (cf. the per-endpoint confinement argument of the Windows IPC
// study, arXiv:1609.04781): a service that faults or times out
// repeatedly on a shard is tripped into a degraded state there, and
// further calls fast-fail with ErrServiceUnhealthy instead of
// consuming workers and call descriptors. The gate is striped like
// every other per-service counter — each shard trips and recovers on
// the evidence of its own calls, so the gate itself introduces no
// shared mutable line.
//
// State machine, per (service, shard) stripe:
//
//	healthy --(MaxConsecutiveFaults faults | MaxConsecutiveTimeouts
//	           deadline expirations in a row)--> degraded
//	degraded --(ProbeAfter elapsed; one caller wins the CAS)--> half-open
//	half-open --(probe call succeeds)--> healthy
//	half-open --(probe call faults/expires)--> degraded (window restarts)
//	half-open --(probe exits with no health evidence)--> degraded
//	half-open --(probe lease expires unsettled)--> a new probe is elected
//
// While degraded (and while a probe is in flight) every other call is
// shed before admission: no in-flight increment, no descriptor, no
// handler — the overloaded endpoint stops eating the shard's capacity.
// Successful calls reset both consecutive counters, so only unbroken
// runs of failures trip the gate.
//
// Probe liveness. The half-open state must always settle: a gate stuck
// half-open sheds every call forever. Success and failure evidence
// settle it through recordSuccess/recordFault/recordTimeout, but a
// probe can also exit with *no* evidence at all — its async submission
// rejected with ErrBackpressure/ErrClosed, its admission backed out on
// a concurrent kill, or its dispatch denied by authorization. Two
// mechanisms guarantee settlement anyway:
//
//  1. gateAdmit tells the winning caller it is the probe, and every
//     such exit path calls settleProbe, which sends the gate back to
//     degraded (the probe window restarts).
//  2. Electing a probe arms a *lease* (reopenAt = now + ProbeAfter).
//     If the lease expires with the gate still half-open — a probe
//     path that cannot settle explicitly, e.g. an async probe whose
//     queued request is discarded by a hard kill on the worker side —
//     the next caller takes over as a fresh probe instead of shedding.
//
// Accuracy note: the consecutive-outcome counters are written by every
// goroutine that settles one of the service's calls on this shard
// (clients sharing the shard, async workers, deadline executors and
// orphaning callers). Racing Store(0)/Add(1) pairs can lose or inflate
// an evidence run, so MaxConsecutive* thresholds are deliberately a
// heuristic — trips may fire an event early or late under concurrent
// mixed outcomes; the atomics keep the counters safe, not exact.

// Health gate states (shardCounters.healthState).
const (
	gateHealthy int32 = iota
	gateDegraded
	gateHalfOpen
)

// HealthConfig arms per-shard health gating for a service (set it on
// ServiceConfig.Health; nil disables gating entirely).
type HealthConfig struct {
	// MaxConsecutiveFaults trips the gate after this many handler
	// faults in a row on one shard (default 8; negative disables the
	// fault trigger).
	MaxConsecutiveFaults int
	// MaxConsecutiveTimeouts trips the gate after this many deadline
	// expirations in a row on one shard (default 8; negative disables
	// the timeout trigger).
	MaxConsecutiveTimeouts int
	// ProbeAfter is how long the gate stays fully open before a single
	// probe call is let through half-open (default 100ms).
	ProbeAfter time.Duration
}

// Health gate defaults.
const (
	defaultMaxConsecutiveFaults   = 8
	defaultMaxConsecutiveTimeouts = 8
	defaultProbeAfter             = 100 * time.Millisecond
)

// normalizeHealth copies cfg with defaults filled in; the Service owns
// the copy, so later caller mutations cannot race the gate.
//
//ppc:coldpath -- Bind-time configuration
func normalizeHealth(cfg *HealthConfig) *HealthConfig {
	if cfg == nil {
		return nil
	}
	h := *cfg
	if h.MaxConsecutiveFaults == 0 {
		h.MaxConsecutiveFaults = defaultMaxConsecutiveFaults
	}
	if h.MaxConsecutiveTimeouts == 0 {
		h.MaxConsecutiveTimeouts = defaultMaxConsecutiveTimeouts
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = defaultProbeAfter
	}
	return &h
}

// gateAdmit is the admission-side health check, called only when the
// service has a gate (svc.health != nil). The healthy fast path is a
// single atomic load of a rarely-written shard-local line; the
// degraded and half-open branches are the cold overload paths. The
// probe result tells the caller it carries the stripe's probe and owes
// the gate a settlement on every exit (see settleProbe).
//
//ppc:hotpath
func (s *Service) gateAdmit(c *shardCounters) (probe bool, err error) {
	if c.healthState.Load() == gateHealthy {
		return false, nil
	}
	return s.gateAdmitSlow(c)
}

// gateAdmitSlow handles the degraded and half-open states: shed the
// call, win the half-open CAS and carry the probe, or take over an
// expired probe lease.
//
//ppc:coldpath -- the gate is open; the call is being shed or probed
func (s *Service) gateAdmitSlow(c *shardCounters) (bool, error) {
	for {
		switch c.healthState.Load() {
		case gateHealthy:
			return false, nil
		case gateHalfOpen:
			// A probe is in flight; shed until it settles — but not
			// forever. If the probe's lease (armed at election) has
			// expired with the gate still half-open, the probe vanished
			// without settlement; take over as a fresh probe. The lease
			// CAS elects one successor per expiry.
			lease := c.reopenAt.Load()
			if time.Now().UnixNano() < lease {
				c.shedCalls.Add(1)
				return false, ErrServiceUnhealthy
			}
			if c.reopenAt.CompareAndSwap(lease, time.Now().Add(s.health.ProbeAfter).UnixNano()) {
				return true, nil // took over the unsettled probe
			}
			// Lost the takeover race; re-read the state.
		case gateDegraded:
			if time.Now().UnixNano() < c.reopenAt.Load() {
				c.shedCalls.Add(1)
				return false, ErrServiceUnhealthy
			}
			if c.healthState.CompareAndSwap(gateDegraded, gateHalfOpen) {
				// Arm the probe lease. (Between the state CAS and this
				// store a concurrent caller can read the stale, already-
				// expired reopenAt and win a takeover — at most one
				// transient extra probe, which is harmless: probes carry
				// ordinary calls and every one settles the gate.)
				c.reopenAt.Store(time.Now().Add(s.health.ProbeAfter).UnixNano())
				return true, nil // this call is the probe
			}
			// Lost the probe race; re-read the state.
		}
	}
}

// settleProbe resolves a probe call that exited with no health
// evidence: its submission was rejected (ErrBackpressure, ErrClosed),
// its admission backed out on a concurrent kill (ErrKilled), or its
// dispatch was denied by authorization (ErrPermissionDenied). None of
// those say anything about the service's health, but the probe still
// owes the gate a settlement — the stripe goes back to degraded and
// the probe window restarts. Outcomes that are evidence (nil success,
// handler faults, deadline expiry) were already settled by
// recordSuccess/recordFault/recordTimeout and are no-ops here.
//
//ppc:coldpath -- probe bookkeeping on an already-failing call
func (s *Service) settleProbe(c *shardCounters, err error) {
	if err == nil {
		return // recordSuccess settled the gate
	}
	if _, isFault := err.(*FaultError); isFault {
		return // recordFault settled the gate
	}
	s.gateReopen(c)
}

// recordSuccess resets the consecutive-failure evidence and closes a
// half-open gate. The warm-path cost when the stripe is clean is two
// atomic loads of lines this goroutine already owns.
//
//ppc:hotpath
func (s *Service) recordSuccess(c *shardCounters) {
	if c.consecFaults.Load() != 0 {
		c.consecFaults.Store(0)
	}
	if c.consecTimeouts.Load() != 0 {
		c.consecTimeouts.Store(0)
	}
	if c.healthState.Load() == gateHalfOpen {
		s.gateRecover(c)
	}
}

// gateRecover closes the gate after a successful half-open probe.
//
//ppc:coldpath -- gate transition, at most once per recovery
func (s *Service) gateRecover(c *shardCounters) {
	if c.healthState.CompareAndSwap(gateHalfOpen, gateHealthy) {
		c.healthRecovers.Add(1)
	}
}

// recordFault notes one handler fault; an unbroken run of them trips
// the gate.
//
//ppc:coldpath -- the handler already panicked; the call is failing
func (s *Service) recordFault(c *shardCounters) {
	c.consecTimeouts.Store(0) // a fault breaks a timeout run, and vice versa
	n := c.consecFaults.Add(1)
	if s.health.MaxConsecutiveFaults > 0 && int(n) >= s.health.MaxConsecutiveFaults {
		s.gateTrip(c)
	} else if c.healthState.Load() == gateHalfOpen {
		s.gateReopen(c)
	}
}

// recordTimeout notes one deadline expiration; an unbroken run of them
// trips the gate.
//
//ppc:coldpath -- the deadline already expired; the call is failing
func (s *Service) recordTimeout(c *shardCounters) {
	c.consecFaults.Store(0)
	n := c.consecTimeouts.Add(1)
	if s.health.MaxConsecutiveTimeouts > 0 && int(n) >= s.health.MaxConsecutiveTimeouts {
		s.gateTrip(c)
	} else if c.healthState.Load() == gateHalfOpen {
		s.gateReopen(c)
	}
}

// gateTrip opens the gate: callers fast-fail until ProbeAfter elapses.
//
//ppc:coldpath -- gate transition, at most once per unbroken failure run
func (s *Service) gateTrip(c *shardCounters) {
	c.reopenAt.Store(time.Now().Add(s.health.ProbeAfter).UnixNano())
	// Trip from healthy or from half-open (a failed probe); count only
	// the transition that actually closed admission.
	if c.healthState.CompareAndSwap(gateHealthy, gateDegraded) ||
		c.healthState.CompareAndSwap(gateHalfOpen, gateDegraded) {
		c.healthTrips.Add(1)
	}
	c.consecFaults.Store(0)
	c.consecTimeouts.Store(0)
}

// gateReopen sends a failed half-open probe back to degraded without
// counting a fresh trip; the probe window restarts.
//
//ppc:coldpath -- gate transition after a failed probe
func (s *Service) gateReopen(c *shardCounters) {
	c.reopenAt.Store(time.Now().Add(s.health.ProbeAfter).UnixNano())
	c.healthState.CompareAndSwap(gateHalfOpen, gateDegraded)
}

// recordOutcome folds a finished call's result into the stripe's
// health evidence. err is the dispatch result: nil, a handler fault,
// or an authorization failure — only the first two are evidence
// (permission denial says nothing about the service's health).
//
//ppc:hotpath
//ppc:rmwbudget(2)
func (s *Service) recordOutcome(c *shardCounters, err error) {
	if err == nil {
		s.recordSuccess(c)
		return
	}
	if _, isFault := err.(*FaultError); isFault {
		s.recordFault(c)
	}
}

// HealthTrips sums the per-shard gate trips (healthy→degraded and
// failed-probe transitions that re-closed admission).
func (s *Service) HealthTrips() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].healthTrips.Load()
	}
	return n
}

// HealthRecovers sums the per-shard gate recoveries (successful
// half-open probes).
func (s *Service) HealthRecovers() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].healthRecovers.Load()
	}
	return n
}

// ShedCalls sums the calls fast-failed with ErrServiceUnhealthy while
// the gate was open.
func (s *Service) ShedCalls() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].shedCalls.Load()
	}
	return n
}

// Healthy reports whether every shard's gate for this service is
// closed (diagnostics).
//
//ppc:coldpath -- diagnostics walk
func (s *Service) Healthy() bool {
	for i := range s.perShard {
		if s.perShard[i].healthState.Load() != gateHealthy {
			return false
		}
	}
	return true
}
