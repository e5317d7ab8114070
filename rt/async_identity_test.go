package rt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestAsyncIdentityEveryExit is the asynchronous counterpart of
// TestStripeIdentityEveryExit: every shape of asynchronous submission is
// driven through every way a submission can end before a worker sees it, with
// and without an attached payload, and each case ends on the same
// conservation identities — AsyncCalls is exactly the handler runs plus
// the queue expiries, nothing is left in flight, no lease is left out,
// the rejection counters moved by exactly what was rejected, and a
// health gate is never left half-open past its lease. Both entry points
// are one path (Client.async); the table is what holds each shape to it.

// asyncEntries lists the six shapes of asynchronous submission behind
// one signature: submit argss (k of them) and report how many were
// accepted. There are two entry points, AsyncCall and Batch.Flush; the
// Batch shapes cover what each can carry — a notify channel, a queueing
// deadline, one request or several. Each row keeps the name of the
// entry point it stood for before those were folded into a Batch, so a
// row's history reads across the fold.
var asyncEntries = []struct {
	name   string
	k      int
	notify bool
	submit func(c *Client, ep EntryPointID, argss []Args, done chan<- struct{}) (int, error)
}{
	{"AsyncCall", 1, false, func(c *Client, ep EntryPointID, a []Args, _ chan<- struct{}) (int, error) {
		return acceptedOne(c.AsyncCall(ep, &a[0]))
	}},
	{"AsyncCallNotify", 1, true, func(c *Client, ep EntryPointID, a []Args, done chan<- struct{}) (int, error) {
		return flushOne(c, ep, &a[0], done, 0)
	}},
	{"AsyncCallDeadline", 1, false, func(c *Client, ep EntryPointID, a []Args, _ chan<- struct{}) (int, error) {
		return flushOne(c, ep, &a[0], nil, time.Hour)
	}},
	{"AsyncCallNotifyDeadline", 1, true, func(c *Client, ep EntryPointID, a []Args, done chan<- struct{}) (int, error) {
		return flushOne(c, ep, &a[0], done, time.Hour)
	}},
	{"AsyncBatch", 2, false, func(c *Client, ep EntryPointID, a []Args, _ chan<- struct{}) (int, error) {
		return flushAll(c, ep, a)
	}},
	{"BatchFlush", 2, true, func(c *Client, ep EntryPointID, a []Args, done chan<- struct{}) (int, error) {
		b := c.NewBatch(ep, 0)
		b.SetNotify(done)
		for i := range a {
			b.Add(&a[i])
		}
		return b.Flush()
	}},
}

// flushOne submits args as a Batch of one with done as its notify
// channel (nil for none) and ttl as its queueing deadline (0 for none).
func flushOne(c *Client, ep EntryPointID, args *Args, done chan<- struct{}, ttl time.Duration) (int, error) {
	b := c.NewBatch(ep, 1)
	b.SetNotify(done)
	b.SetDeadline(ttl)
	b.Add(args)
	return b.Flush()
}

func acceptedOne(err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// Handler opcodes of the table's service (args[0]).
const (
	idOpNormal = iota
	idOpWedge
	idOpPanic
	idOpAbandon // the handler abandons the case's client — its own caller
)

// idEnv is one case's system, shared by the asynchronous and the
// synchronous identity tables: one shard, one worker, supervision off
// (cases wedge the worker on purpose).
type idEnv struct {
	sys     *System
	svc     *Service
	c       *Client
	ran     int64        // asynchronous handler runs; read after the drain
	syncRet atomic.Int64 // synchronous handler runs that returned normally
	denyAll atomic.Bool  // the service's authorization hook refuses everyone
	// syncExpired is how many of the shard's deadline expirations were
	// synchronous calls'; the rest are queue expiries.
	syncExpired int64
	entered     chan struct{}
	gate        chan struct{}
	wedged      bool
}

// wedge parks the shard's only worker inside a handler, so that what is
// submitted afterwards stays in its ring, and then fills the client's
// ring up to free slots short of full.
func (e *idEnv) wedge(t *testing.T, ringCap, free int) {
	t.Helper()
	if err := e.c.AsyncCall(e.svc.EP(), &Args{idOpWedge}); err != nil {
		t.Fatal(err)
	}
	<-e.entered
	e.wedged = true
	for i := 0; i < ringCap-free; i++ {
		if err := e.c.AsyncCall(e.svc.EP(), &Args{idOpNormal}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
}

// trip opens the service's health gate on shard 0 with two faults.
func (e *idEnv) trip(t *testing.T) {
	t.Helper()
	tc := e.sys.NewClientWith(ClientOptions{})
	defer tc.Release()
	for i := 0; i < 2; i++ {
		if err := tc.Call(e.svc.EP(), &Args{idOpPanic}); !errors.Is(err, ErrServerFault) {
			t.Fatalf("tripping call: %v", err)
		}
	}
	if e.svc.Healthy() {
		t.Fatal("gate did not trip")
	}
}

// probeDue holds a gate whose probe did not succeed to its one
// guarantee: it is open and its next probe is due within ProbeAfter — a
// failed probe restarted the window, a probe that reported nothing left
// the gate to the lease its election armed.
func (e *idEnv) probeDue(t *testing.T) {
	t.Helper()
	c := &e.svc.perShard[0]
	if c.healthState.Load() == gateHealthy {
		t.Error("the gate closed after a probe that did not succeed")
	}
	if due := time.Until(time.Unix(0, c.reopenAt.Load())); due > e.svc.health.ProbeAfter {
		t.Errorf("the next probe is due in %v, past ProbeAfter (%v)", due, e.svc.health.ProbeAfter)
	}
}

const idRingCap = 2

// asyncExits lists the exits. arrange puts the system in the state that
// produces the exit and returns how many of the k requests about to be
// submitted the ring should still accept; check reads the counters that
// exit moves, given how many requests were rejected.
var asyncExits = []struct {
	name    string
	opts    Options
	copts   ClientOptions
	health  *HealthConfig
	want    error
	arrange func(t *testing.T, e *idEnv, ep *EntryPointID, k int) (accept int)
	check   func(t *testing.T, e *idEnv, st ShardStats, rejected int64)
}{
	{
		name: "bad entry point", want: ErrBadEntryPoint,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int { *ep += 100; return 0 },
	},
	{
		// The window of a hard Kill between its state store and the
		// retraction of the table entry.
		name: "hard-killed", want: ErrKilled,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int {
			e.svc.state.Store(svcDead)
			return 0
		},
	},
	{
		name: "closed", want: ErrClosed,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int { e.sys.Close(); return 0 },
	},
	{
		name: "ring-full backpressure", want: ErrBackpressure,
		opts: Options{AsyncQueueCap: idRingCap},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int {
			e.wedge(t, idRingCap, k-1)
			return k - 1
		},
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			if st.BackpressureRejects != 1 || st.ShedByLane != ([NumLaneClasses]int64{}) {
				t.Errorf("BackpressureRejects = %d, ShedByLane = %v; want 1 and zeros (one lane)", st.BackpressureRejects, st.ShedByLane)
			}
		},
	},
	{
		name: "best-effort shed", want: ErrShed,
		opts:  Options{Lanes: 3, AsyncQueueCap: idRingCap},
		copts: ClientOptions{Lane: LaneBestEffort},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int {
			e.wedge(t, idRingCap, k-1)
			return k - 1
		},
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			if st.ShedByLane != ([NumLaneClasses]int64{2: rejected}) || st.BackpressureRejects != 0 {
				t.Errorf("ShedByLane = %v, BackpressureRejects = %d; want [0 0 %d] and 0", st.ShedByLane, st.BackpressureRejects, rejected)
			}
		},
	},
	{
		name: "tenant throttle", want: ErrShed,
		copts: ClientOptions{Tenant: 3},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int {
			if err := e.sys.ConfigureTenant(3, TenantConfig{Rate: 1e-3, Burst: 1}); err != nil {
				t.Fatal(err)
			}
			if err := e.c.AsyncCall(e.svc.EP(), &Args{idOpNormal}); err != nil { // the burst
				t.Fatal(err)
			}
			return 0
		},
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			if st.TenantThrottled != rejected {
				t.Errorf("TenantThrottled = %d, want %d", st.TenantThrottled, rejected)
			}
		},
	},
	{
		name: "abandoned client", want: ErrClientAbandoned,
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int { e.c.Abandon(); return 0 },
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			if e.ran != 0 {
				t.Errorf("%d handlers ran for an abandoned client", e.ran)
			}
		},
	},
	{
		name: "open health gate", want: ErrServiceUnhealthy,
		health:  &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Hour},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int { e.trip(t); return 0 },
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			if st.ShedCalls != 1 {
				t.Errorf("ShedCalls = %d, want 1 (the gate sheds a submission, not its requests)", st.ShedCalls)
			}
		},
	},
	{
		// The submission wins the half-open election and is then refused
		// before the ring: no worker will ever report for it.
		name: "rejected probe", want: ErrBackpressure,
		health: &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Millisecond},
		arrange: func(t *testing.T, e *idEnv, ep *EntryPointID, k int) int {
			e.trip(t)
			time.Sleep(2 * time.Millisecond)
			e.sys.InjectFault(faultSiteSubmit, FaultErrFirst(1<<30, ErrBackpressure))
			return 0
		},
		check: func(t *testing.T, e *idEnv, st ShardStats, rejected int64) {
			e.probeDue(t)
			if st.BackpressureRejects != 1 {
				t.Errorf("BackpressureRejects = %d, want 1", st.BackpressureRejects)
			}
		},
	},
}

func TestAsyncIdentityEveryExit(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	for _, exit := range asyncExits {
		for _, entry := range asyncEntries {
			for _, payload := range []bool{false, true} {
				name := exit.name + "/" + entry.name
				if payload {
					name += "/payload"
				}
				t.Run(name, func(t *testing.T) {
					e := newIDEnv(t, exit.opts, exit.copts, exit.health)
					ep := e.svc.EP()
					argss := e.requests(t, entry.k, payload)
					accept := exit.arrange(t, e, &ep, entry.k)
					done := make(chan struct{}, 64)
					n, err := entry.submit(e.c, ep, argss, done)
					if n != accept || !errors.Is(err, exit.want) {
						t.Errorf("accepted %d, err %v; want %d, %v", n, err, accept, exit.want)
					}
					e.settle(t)
					if exit.check != nil {
						exit.check(t, e, e.sys.Stats()[0], int64(entry.k-accept))
					}
					if entry.notify && len(done) != accept {
						t.Errorf("%d notifications for %d accepted requests", len(done), accept)
					}
				})
			}
		}
	}
}

// TestAsyncIdentityKillRace is the exit the table cannot stage: a soft
// kill that lands between a submission's resolve and its admission
// re-check, where the admission backs out. The service state is flipped
// under a stream of submissions through every entry point; whichever
// side of the re-check each flip lands on, the identities hold.
func TestAsyncIdentityKillRace(t *testing.T) {
	needTwoPs(t)
	leakCheck(t)
	for _, entry := range asyncEntries {
		for _, payload := range []bool{false, true} {
			name := entry.name
			if payload {
				name += "/payload"
			}
			t.Run(name, func(t *testing.T) {
				e := newIDEnv(t, Options{}, ClientOptions{}, nil)
				stop, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					for {
						select {
						case <-stop:
							e.svc.state.Store(svcActive)
							return
						default:
						}
						e.svc.state.Store(svcSoftKilled)
						e.svc.state.Store(svcActive)
					}
				}()
				done := make(chan struct{}, 4096)
				var killed, accepted int64
				for i := 0; i < 1000; i++ {
					n, err := entry.submit(e.c, e.svc.EP(), e.requests(t, entry.k, payload), done)
					switch {
					case errors.Is(err, ErrKilled):
						killed += int64(entry.k)
					case err != nil && !errors.Is(err, ErrBackpressure):
						t.Fatalf("submission %d: %v", i, err)
					}
					accepted += int64(n)
				}
				close(stop)
				<-stopped
				e.settle(t)
				if got := e.svc.KilledBackouts(); got > killed {
					t.Errorf("KilledBackouts = %d, more than the %d requests that failed with ErrKilled", got, killed)
				}
				if e.ran != accepted {
					t.Errorf("%d handlers ran for %d accepted requests", e.ran, accepted)
				}
				if entry.notify && int64(len(done)) != accepted {
					t.Errorf("%d notifications for %d accepted requests", len(done), accepted)
				}
				t.Logf("%d accepted, %d killed, %d of those backed out after admission", accepted, killed, e.svc.KilledBackouts())
			})
		}
	}
}

func newIDEnv(t *testing.T, o Options, co ClientOptions, health *HealthConfig) *idEnv {
	t.Helper()
	o.Shards, o.MaxWorkers, o.WorkerStallThreshold, o.WatchdogInterval = 1, 1, -1, time.Millisecond
	e := &idEnv{sys: newSystem(t, o), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	e.sys.shards[0].submitWait = 200 * time.Microsecond
	var err error
	e.svc, err = e.sys.Bind(ServiceConfig{Name: "identity", Health: health, Handler: func(ctx *Ctx, args *Args) {
		if ctx.IsAsync() {
			e.ran++ // one worker: serial
		}
		switch args[0] {
		case idOpWedge:
			e.entered <- struct{}{}
			<-e.gate
		case idOpPanic:
			panic("identity")
		case idOpAbandon:
			e.c.Abandon()
		}
		for i := 0; i < ctx.NumPayloads(); i++ {
			if v := ctx.Payload(i); len(v) != 64 || v[0] != byte(args[1]) {
				t.Errorf("request %d: payload view %v", args[1], v)
			}
		}
		if !ctx.IsAsync() {
			e.syncRet.Add(1)
		}
	}, Authorize: func(uint32) bool { return !e.denyAll.Load() }})
	if err != nil {
		t.Fatal(err)
	}
	co.Shard = 0
	e.c = e.sys.NewClientWith(co)
	return e
}

// requests builds k requests, each with a leased segment attached when
// payload is set.
func (e *idEnv) requests(t *testing.T, k int, payload bool) []Args {
	t.Helper()
	argss := make([]Args, k)
	for i := range argss {
		argss[i][1] = uint64(i + 1)
		if payload {
			ref, buf, err := e.c.AllocPayload(64)
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(i + 1)
			argss[i].AttachPayload(ref)
		}
	}
	return argss
}

// settle lets everything accepted run, holds the System to the audit
// and the case to the count of what ran.
func (e *idEnv) settle(t *testing.T) {
	t.Helper()
	if e.wedged {
		close(e.gate)
	}
	e.sys.ClearFaults()
	e.sys.Close() // joins the worker: e.ran is final
	awaitAudit(t, e.sys)
	st := e.sys.Stats()[0]
	if got, want := e.svc.AsyncCalls(), e.ran+st.DeadlineExpirations-e.syncExpired; got != want {
		t.Errorf("AsyncCalls = %d, want %d handler runs + %d queue expirations", got, e.ran, st.DeadlineExpirations-e.syncExpired)
	}
}
