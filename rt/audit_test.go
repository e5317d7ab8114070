package rt

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The conservation audit: what a call borrows — an admission, a call
// descriptor, a worker, a payload lease, a queue slot — goes back once
// the System is quiescent. Every System an rt test builds goes through
// newSystem, whose cleanup closes it and holds it to audit; the
// identities and the code that keeps each are listed in
// docs/INVARIANTS.md ("The conservation audit").

// auditGrace is how long newSystem's cleanup polls for the identities
// after Close: an orphaned handler, a retiring executor or a worker on
// its way out settles asynchronously.
const auditGrace = 5 * time.Second

// audit returns the first conservation identity sys breaks, or nil. It
// reads every service bound in sys and every one it killed that has not
// been collected. The identities are exact only once the System is
// quiescent; a caller polls it (newSystem's cleanup does, for up to
// auditGrace).
func audit(sys *System) error {
	var svcs []*Service
	sys.mu.Lock()
	for _, w := range sys.killed {
		if svc := w.Value(); svc != nil {
			svcs = append(svcs, svc)
		}
	}
	sys.mu.Unlock()
	for ep := EntryPointID(0); ep < MaxEntryPoints; ep++ {
		if svc := sys.Service(ep); svc != nil {
			svcs = append(svcs, svc)
		}
	}

	for _, svc := range svcs {
		for i := range svc.perShard {
			c := &svc.perShard[i]
			if a, d := atomic.LoadInt64(&c.stripe.admitted), atomic.LoadInt64(&c.stripe.completed); a != d {
				return fmt.Errorf("service %q, shard %d stripe: %d synchronous admissions, %d completions", svc.name, i, a, d)
			}
			if a, d := c.asyncAdm.Load(), c.stripe.asyncDone.Load(); a != d {
				return fmt.Errorf("service %q, shard %d: %d asynchronous requests accepted, %d settled", svc.name, i, a, d)
			}
			if svc.health != nil && c.healthState.Load() == gateHalfOpen &&
				time.Until(time.Unix(0, c.reopenAt.Load())) > svc.health.ProbeAfter {
				return fmt.Errorf("service %q, shard %d: gate half-open with its lease past ProbeAfter (%v)", svc.name, i, svc.health.ProbeAfter)
			}
		}
		svc.stripeMu.Lock()
		stripes := slices.Clone(svc.stripes)
		svc.stripeMu.Unlock()
		for j, st := range stripes {
			if a, d := atomic.LoadInt64(&st.admitted), atomic.LoadInt64(&st.completed); a != d {
				return fmt.Errorf("service %q, descriptor stripe %d: %d synchronous admissions, %d completions", svc.name, j, a, d)
			}
			if n := st.asyncDone.Load(); n != 0 {
				return fmt.Errorf("service %q, descriptor stripe %d: %d asynchronous completions, want 0", svc.name, j, n)
			}
		}
	}
	for _, st := range sys.Stats() {
		// The four gauges the next check wants at zero cannot read negative
		// past it; these are the others.
		if min(int64(st.PooledCDs), st.HeldCDs, st.AsyncWorkers, st.StuckWorkers, int64(slices.Min(st.LaneDepth[:]))) < 0 {
			return fmt.Errorf("shard %d: a gauge reads negative: %+v", st.Shard, st)
		}
		if st.LeasesActive != 0 || st.QuarantinedCDs != 0 || st.AsyncQueueDepth != 0 || st.OffloadQueueDepth != 0 {
			return fmt.Errorf("shard %d: LeasesActive = %d, QuarantinedCDs = %d, AsyncQueueDepth = %d, OffloadQueueDepth = %d; want all 0",
				st.Shard, st.LeasesActive, st.QuarantinedCDs, st.AsyncQueueDepth, st.OffloadQueueDepth)
		}
		execs := int64(sys.shards[st.Shard].deadlineExecs())
		// The identity below counts workers and executors as accounted for;
		// a closed System must have retired them all.
		if sys.closed.Load() && st.AsyncWorkers+execs != 0 {
			return fmt.Errorf("shard %d after Close: %d async workers, %d deadline executors; want 0", st.Shard, st.AsyncWorkers, execs)
		}
		if accounted := int64(st.PooledCDs) + st.HeldCDs + st.ScavengedCDs + st.AsyncWorkers + execs; st.CDsCreated != accounted {
			return fmt.Errorf("shard %d: CDsCreated = %d, want PooledCDs %d + HeldCDs %d + ScavengedCDs %d + AsyncWorkers %d + executors %d = %d",
				st.Shard, st.CDsCreated, st.PooledCDs, st.HeldCDs, st.ScavengedCDs, st.AsyncWorkers, execs, accounted)
		}
	}
	return nil
}

// awaitAudit polls audit until it holds or auditGrace runs out, and
// fails t with what it last found.
func awaitAudit(t testing.TB, sys *System) {
	t.Helper()
	err := audit(sys)
	for end := time.Now().Add(auditGrace); err != nil && time.Now().Before(end); err = audit(sys) {
		time.Sleep(100 * time.Microsecond)
	}
	if err != nil {
		t.Errorf("conservation audit: %v", err)
	}
}

// newSystem builds a System whose test ends with the audit: a cleanup
// closes it and fails the test with whatever identity did not converge
// within auditGrace.
func newSystem(t testing.TB, o Options) *System {
	t.Helper()
	sys := NewSystemOptions(o)
	t.Cleanup(func() {
		sys.Close()
		awaitAudit(t, sys)
	})
	return sys
}

// TestAuditReachesKilledServices: a Kill retracts its service from the
// tables, and the audit still reads its stripes, through System.killed.
// An admission left open on the killed service's descriptor stripe is
// reported; closing it again satisfies the audit.
func TestAuditReachesKilledServices(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "victim", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	defer c.Release()
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
	if sys.Service(svc.EP()) != nil {
		t.Fatal("setup: the killed service is still in the table")
	}
	st := c.held.stripeOf(svc)
	atomic.AddInt64(&st.admitted, 1)
	if err := audit(sys); err == nil || !strings.Contains(err.Error(), `"victim"`) {
		t.Errorf("audit with an open admission on a killed service's stripe = %v, want it reported", err)
	}
	atomic.AddInt64(&st.admitted, -1)
	if err := audit(sys); err != nil {
		t.Errorf("audit after closing it again: %v", err)
	}
}
