package rt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestSyncIdentityEveryExit is the synchronous table: every synchronous
// entry point is driven through every way a call can end, with and
// without an attached payload, one case at a time, and each case ends on
// the same identities — nothing in flight, no lease out, no descriptor
// in quarantine, Service.Calls moved by exactly the handler runs that
// returned, the health gate never left half-open past its lease — and on
// the same error for the same exit
// whichever entry point took it. The entry points are one core
// (shard.enter, System.callHeld, the two exits of callRec); the table is
// what holds each of them to it. TestStripeIdentityEveryExit is the same
// claim under a concurrent storm.

// syncKnobs is what an exit may turn on the two bounded entry points.
type syncKnobs struct {
	d   time.Duration   // CallDeadline's bound
	ctx context.Context // CallContext's context
}

// What an entry point is, for the exits that exist only on some: the
// Client's own (the client-side exits apply), one that runs on a
// descriptor held across calls (the client's, or its deadline
// executor's), one a deadline can orphan, the one that takes a context.
const (
	entClient = 1 << iota
	entHeld
	entBounded
	entCtx
)

// syncEntries lists the six synchronous entry points behind one shape.
var syncEntries = []struct {
	name string
	is   int
	call func(e *idEnv, ep EntryPointID, args *Args, k syncKnobs) error
}{
	{"Call", entClient | entHeld, func(e *idEnv, ep EntryPointID, a *Args, _ syncKnobs) error { return e.c.Call(ep, a) }},
	{"CallPooled", entClient, func(e *idEnv, ep EntryPointID, a *Args, _ syncKnobs) error { return e.c.CallPooled(ep, a) }},
	{"CallDeadline", entClient | entHeld | entBounded, func(e *idEnv, ep EntryPointID, a *Args, k syncKnobs) error { return e.c.CallDeadline(ep, a, k.d) }},
	{"CallContext", entClient | entHeld | entBounded | entCtx, func(e *idEnv, ep EntryPointID, a *Args, k syncKnobs) error { return e.c.CallContext(k.ctx, ep, a) }},
	{"CtxCall", 0, func(e *idEnv, ep EntryPointID, a *Args, _ syncKnobs) error { return e.nested(ep, a) }},
	{"Upcall", 0, func(e *idEnv, ep EntryPointID, a *Args, _ syncKnobs) error { return e.sys.Upcall(0, ep, a) }},
}

// nested makes the call from inside a handler: a second service on the
// case's system, called by a client of its own, whose handler passes the
// request on with Ctx.Call and reports what that returned. A request
// marked for a payload gets it there, leased from the handler's context.
func (e *idEnv) nested(ep EntryPointID, args *Args) error {
	var inner error
	nest, err := e.sys.Bind(ServiceConfig{Name: "nest", Handler: func(ctx *Ctx, outer *Args) {
		if args[2] != 0 {
			ref, buf, err := ctx.AllocPayload(64)
			if err != nil {
				inner = err
				return
			}
			buf[0] = byte(args[1])
			args.AttachPayload(ref)
		}
		inner = ctx.Call(ep, args)
	}})
	if err != nil {
		return err
	}
	nc := e.sys.NewClientWith(ClientOptions{})
	defer nc.Release()
	if err := nc.Call(nest.EP(), &Args{}); err != nil {
		return err
	}
	if n := nest.inFlightTotal(); n != 0 {
		return errors.New("the nesting service is left with calls in flight")
	}
	return inner
}

// syncRequest builds the case's one request. A client's entry point
// leases its payload through the client; an upcall has no client and
// takes the lease from the shard's arena; a nested call leaves a mark
// for its handler.
func (e *idEnv) syncRequest(t *testing.T, entry string, op uint64, payload bool) *Args {
	t.Helper()
	args := &Args{op, 1}
	if !payload {
		return args
	}
	switch entry {
	case "CtxCall":
		args[2] = 1
	case "Upcall":
		ref, buf, err := e.sys.shards[0].arena.alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 1
		args.AttachPayload(ref)
	default:
		args = &e.requests(t, 1, true)[0]
		args[0] = op
	}
	return args
}

// reopen lets the open gate's probe window elapse.
func (e *idEnv) reopen(t *testing.T) {
	t.Helper()
	e.trip(t)
	time.Sleep(2 * time.Millisecond)
}

var idProbing = &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Millisecond}

// syncExits lists the exits. arrange puts the system in the state that
// produces the exit; calls is how many handler runs of the call under
// test return normally (an orphaned handler's return included); check
// reads whatever else the exit moves.
var syncExits = []struct {
	name    string
	copts   ClientOptions
	health  *HealthConfig
	op      uint64
	want    error
	calls   int64
	restart bool // the exit restarts the open gate's probe window
	only    int  // what an entry point must be for the exit to exist on it
	arrange func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs)
	check   func(t *testing.T, e *idEnv, st ShardStats)
}{
	{name: "success", calls: 1},
	{name: "handler panic", op: idOpPanic, want: ErrServerFault},
	{
		name: "bad entry point", want: ErrBadEntryPoint,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { *ep += 100 },
	},
	{
		name: "denied", want: ErrPermissionDenied,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.denyAll.Store(true) },
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if got := e.svc.AuthFailures(); got != 1 {
				t.Errorf("AuthFailures = %d, want 1", got)
			}
		},
	},
	{
		name: "soft-killed", want: ErrKilled,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.svc.state.Store(svcSoftKilled) },
	},
	{
		name: "gate shut", want: ErrServiceUnhealthy,
		health:  &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Hour},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.trip(t) },
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if st.ShedCalls != 1 {
				t.Errorf("ShedCalls = %d, want 1", st.ShedCalls)
			}
		},
	},
	{
		name: "probe ok", calls: 1, health: idProbing,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.reopen(t) },
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if !e.svc.Healthy() || e.svc.HealthRecovers() != 1 {
				t.Errorf("healthy %v, HealthRecovers %d after a probe that succeeded", e.svc.Healthy(), e.svc.HealthRecovers())
			}
		},
	},
	{
		name: "probe denied", want: ErrPermissionDenied, health: idProbing, restart: true,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.reopen(t)
			e.denyAll.Store(true)
		},
		check: probeFailed,
	},
	{
		name: "probe panic", op: idOpPanic, want: ErrServerFault, health: idProbing, restart: true,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.reopen(t) },
		check:   probeFailed,
	},
	{
		// The probe's admission backs out: a soft kill lands between the
		// entry and the admission. Staged on the one lock the path can take
		// there — a descriptor's first call to a service links its stripe
		// under the service's stripe mutex — so only where the call runs on
		// a descriptor held for it: the client's, or its deadline
		// executor's.
		name: "probe killed", want: ErrKilled, health: idProbing, only: entHeld,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.c.Hold() // a fresh descriptor: it owns no stripe for the service yet
			e.reopen(t)
			// And an empty pool, so that an executor armed by the call pops a
			// fresh one too, not the one the tripping client just returned:
			// throwaway clients hold what is pooled for the rest of the row.
			for e.sys.Stats()[0].PooledCDs != 0 {
				taker := e.sys.NewClientWith(ClientOptions{})
				taker.Hold()
				t.Cleanup(taker.Release)
			}
			e.svc.stripeMu.Lock()
			go func() {
				defer e.svc.stripeMu.Unlock()
				for end := time.Now().Add(2 * time.Second); e.svc.perShard[0].healthState.Load() != gateHalfOpen; runtime.Gosched() {
					if time.Now().After(end) {
						t.Error("the call never took the probe")
						return
					}
				}
				e.svc.state.Store(svcSoftKilled)
			}()
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			probeFailed(t, e, st)
			if got := e.svc.KilledBackouts(); got != 1 {
				t.Errorf("KilledBackouts = %d, want 1", got)
			}
		},
	},
	{
		name: "tenant throttle", want: ErrShed, only: entClient,
		copts: ClientOptions{Tenant: 3},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.oneToken(t)
			if err := e.c.AsyncCall(e.svc.EP(), &Args{idOpNormal}); err != nil { // the burst
				t.Fatal(err)
			}
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if st.TenantThrottled != 1 {
				t.Errorf("TenantThrottled = %d, want 1", st.TenantThrottled)
			}
		},
	},
	{
		name: "abandoned, never held", want: ErrClientAbandoned, only: entClient,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) { e.c.Abandon() },
	},
	{
		name: "abandoned, held", want: ErrClientAbandoned, only: entClient,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.c.Hold()
			e.c.Abandon()
		},
	},
	{
		// Abandonment comes first in the order every entry point fails in:
		// a dead client's call to nowhere is not a bad entry point,
		name: "abandoned, bad entry point", want: ErrClientAbandoned, only: entClient,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			*ep += 100
			e.c.Abandon()
		},
	},
	{
		// and behind a shut gate it is not a shed (a transient error).
		name: "abandoned, gate shut", want: ErrClientAbandoned, only: entClient,
		health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Hour},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.trip(t)
			e.c.Abandon()
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if st.ShedCalls != 0 {
				t.Errorf("ShedCalls = %d, want 0: an abandoned client's call is not a shed", st.ShedCalls)
			}
		},
	},
	{
		// A dead client's call spends nothing of its tenant's: the one
		// token is still there for a live client of the same tenant.
		name: "abandoned, tenant", want: ErrClientAbandoned, only: entClient,
		copts: ClientOptions{Tenant: 3},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.oneToken(t)
			e.c.Abandon()
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			live := e.sys.NewClientWith(ClientOptions{Tenant: 3})
			defer live.Release()
			if err := live.Call(e.svc.EP(), &Args{idOpNormal}); err != nil {
				t.Errorf("a live client of the dead client's tenant: %v; want its call to take the token", err)
			}
		},
	},
	{
		// A dead client's call in the open probe window neither is shed
		// nor takes the probe: the next live caller is the probe.
		name: "abandoned, probe window", want: ErrClientAbandoned, only: entClient, health: idProbing,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.reopen(t)
			e.c.Abandon()
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if st.ShedCalls != 0 {
				t.Errorf("ShedCalls = %d, want 0: an abandoned client's call is not a shed", st.ShedCalls)
			}
		},
	},
	{
		name: "deadline expiry", op: idOpWedge, want: ErrDeadline, calls: 1, only: entBounded,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.wedged = true
			k.d = 5 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), k.d)
			t.Cleanup(cancel)
			k.ctx = ctx
		},
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if st.DeadlineExpirations != 1 {
				t.Errorf("DeadlineExpirations = %d, want 1", st.DeadlineExpirations)
			}
		},
	},
	{
		name: "ctx cancel", op: idOpWedge, want: context.Canceled, calls: 1, only: entCtx,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			e.wedged = true
			ctx, cancel := context.WithCancel(context.Background())
			k.ctx = ctx
			go func() {
				<-e.entered
				cancel()
			}()
		},
	},
	{
		name: "ctx dead on arrival", want: context.Canceled, only: entCtx,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k *syncKnobs) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			k.ctx = ctx
		},
	},
	{
		// The call in flight completes; the client's next call fails.
		name: "handler abandons its caller", op: idOpAbandon, calls: 1, only: entClient,
		check: func(t *testing.T, e *idEnv, st ShardStats) {
			if !e.c.Abandoned() {
				t.Error("the client is not abandoned")
			}
		},
	},
}

// probeFailed: the probe reported a failure, or nothing; the gate is
// open and its next probe is due within ProbeAfter.
func probeFailed(t *testing.T, e *idEnv, st ShardStats) { e.probeDue(t) }

// oneToken gives the case's tenant a bucket of one token that does not
// refill within the test.
func (e *idEnv) oneToken(t *testing.T) {
	t.Helper()
	if err := e.sys.ConfigureTenant(3, TenantConfig{Rate: 1e-3, Burst: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIdentityEveryExit(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	for _, exit := range syncExits {
		for _, entry := range syncEntries {
			if entry.is&exit.only != exit.only {
				continue
			}
			for _, payload := range []bool{false, true} {
				name := exit.name + "/" + entry.name
				if payload {
					name += "/payload"
				}
				t.Run(name, func(t *testing.T) {
					e := newIDEnv(t, Options{}, exit.copts, exit.health)
					ep := e.svc.EP()
					args := e.syncRequest(t, entry.name, exit.op, payload)
					ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
					defer cancel()
					k := syncKnobs{d: time.Hour, ctx: ctx}
					calls, returned := e.svc.Calls(), e.syncRet.Load()
					if exit.arrange != nil {
						exit.arrange(t, e, &ep, &k)
					}
					err := entry.call(e, ep, args, k)
					if !errors.Is(err, exit.want) || (exit.want == nil && err != nil) {
						t.Errorf("err %v, want %v", err, exit.want)
					}
					if exit.want == ErrClientAbandoned && transient(err) {
						t.Errorf("err %v is transient; an abandoned client's failure is terminal", err)
					}
					e.syncIdentities(t, calls, returned, exit.calls)
					if exit.check != nil {
						exit.check(t, e, e.sys.Stats()[0])
					}
					e.stillWhole(t, exit.restart)
					e.c.Release()
					e.settle(t)
				})
			}
		}
	}
}

// syncIdentities lets an orphaned handler return and holds the case to
// the identities every exit must leave true.
func (e *idEnv) syncIdentities(t *testing.T, calls, returned, want int64) {
	t.Helper()
	if e.wedged {
		close(e.gate)
		e.wedged = false
	}
	waitCond(t, 5*time.Second, "calls to finish, leases and quarantined descriptors to settle", func() bool {
		st := e.sys.Stats()[0]
		return e.svc.inFlightTotal() == 0 && st.LeasesActive == 0 && st.QuarantinedCDs == 0
	})
	if got := e.svc.Calls() - calls; got != want || e.syncRet.Load()-returned != want {
		t.Errorf("Calls moved by %d and %d handler runs returned, want %d of each", got, e.syncRet.Load()-returned, want)
	}
	if e.halfOpenPastLease() {
		t.Error("the health gate was left half-open past its lease")
	}
	e.syncExpired = e.sys.Stats()[0].DeadlineExpirations
}

// stillWhole shows the service is as the exit should have left it: a
// live client's next call runs — as the probe, if the gate is open and
// its window has elapsed (restarted: the case's own exit restarted the
// window, so wait it out first) — and only a gate shut for good sheds it.
func (e *idEnv) stillWhole(t *testing.T, restarted bool) {
	t.Helper()
	if e.svc.state.Load() != svcActive || e.denyAll.Load() {
		return
	}
	shed := e.svc.ShedCalls()
	if restarted {
		time.Sleep(2 * e.svc.health.ProbeAfter)
	}
	live := e.sys.NewClientWith(ClientOptions{})
	defer live.Release()
	err := live.Call(e.svc.EP(), &Args{idOpNormal})
	if e.svc.health != nil && e.svc.health.ProbeAfter == time.Hour {
		if !errors.Is(err, ErrServiceUnhealthy) {
			t.Errorf("a live client's call behind a shut gate: %v", err)
		}
	} else if err != nil || e.svc.ShedCalls() != shed {
		t.Errorf("a live client's next call: %v (ShedCalls moved by %d); want it to run", err, e.svc.ShedCalls()-shed)
	}
}
