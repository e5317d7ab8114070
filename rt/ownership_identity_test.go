package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOwnershipIdentityEveryOrder is the ownership table: every
// operation that fills or empties a slot of the client's ownership
// record, with the client's death falling before it, inside its handler
// and after it, declared each way a death can be — Abandon from another
// goroutine, Abandon from inside the client's own handler, the
// AddCleanup backstop — one case at a time, and each case ends on the
// same identities: nothing held, no lease out, nothing in quarantine,
// one death counted, the operation failed with ErrClientAbandoned
// exactly when the death preceded its life check, a Release of the dead
// client quiet, and once the System is closed every descriptor ever made
// either in the pool or condemned — never both, never neither. The
// storms (TestLeaseStorm, TestChaosDomainDeath) race the same parties;
// the table names each order.

// Where the death falls, relative to the operation.
const (
	deathBefore = iota
	deathInside // the operation's handler is running
	deathAfter
)

var ownPoints = []string{"before", "inside", "after"}

// ownEnv is one case: a fresh one-shard System, a service whose handler
// runs the case's death when it falls inside, a carrier service whose
// handler abandons the client, and the client under test with what its
// operation was set up with.
type ownEnv struct {
	t    *testing.T
	sys  *System
	sh   *shard
	svc  *Service
	kill *Service
	c    *Client
	b    *Batch
	ref  PayloadRef
	args Args
	live bool // the client is alive when the operation runs

	inside atomic.Pointer[func()] // the death, when it falls inside the handler
	victim atomic.Pointer[Client] // whom the carrier's handler abandons
	ran    chan struct{}          // one token per run of svc's handler
}

func newOwnEnv(t *testing.T) *ownEnv {
	t.Helper()
	e := &ownEnv{t: t, sys: NewSystemOptions(Options{Shards: 1}), ran: make(chan struct{}, 4)}
	e.sh = &e.sys.shards[0]
	var err error
	e.svc, err = e.sys.Bind(ServiceConfig{Name: "op", Handler: func(ctx *Ctx, args *Args) {
		if fn := e.inside.Swap(nil); fn != nil {
			(*fn)()
		}
		// The call claimed its lease at entry: the view outlives the client.
		if ctx.NumPayloads() == 1 {
			if v := ctx.Payload(0); len(v) != 64 || v[0] != 0x5a {
				t.Errorf("payload view after the death: %v", v)
			}
		}
		e.ran <- struct{}{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.kill, err = e.sys.Bind(ServiceConfig{Name: "carrier", Handler: func(ctx *Ctx, args *Args) {
		e.victim.Load().Abandon()
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.c = e.sys.NewClientWith(ClientOptions{})
	e.victim.Store(e.c)
	return e
}

// lease takes a tagged lease on the live client and attaches it to the
// case's request.
func (e *ownEnv) lease() {
	e.t.Helper()
	ref, buf, err := e.c.AllocPayload(64)
	if err != nil {
		e.t.Fatalf("setup AllocPayload: %v", err)
	}
	buf[0] = 0x5a
	e.ref = ref
	e.args.AttachPayload(ref)
}

// mustPanic reports whether fn panicked.
func mustPanic(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// ownOps lists the owner operations. handler: the operation runs the
// service's handler, so a death can fall inside it. leaks: a live client
// that stops here still holds something, so collecting it is a death.
// quiet: the operation has no way to report a dead client. run reports
// the operation's error, ErrClientAbandoned standing in for a decline
// that returns none.
var ownOps = []struct {
	name                  string
	handler, leaks, quiet bool
	setup                 func(e *ownEnv)
	run                   func(e *ownEnv) error
}{
	{name: "Hold", leaks: true, run: func(e *ownEnv) error {
		e.c.Hold()
		if !e.c.Held() {
			return ErrClientAbandoned
		}
		if e.c.rec.cd.Load() != e.c.held {
			e.t.Errorf("Hold left %p in the slot, holding %p", e.c.rec.cd.Load(), e.c.held)
		}
		return nil
	}},
	{name: "Release", quiet: true, setup: func(e *ownEnv) { e.c.Hold() }, run: func(e *ownEnv) error {
		e.c.Release() // of a live hold, or of one the reap has condemned: quiet both ways
		if e.c.Held() || e.c.rec.cd.Load() != nil {
			e.t.Errorf("after Release: Held() = %v, slot %p", e.c.Held(), e.c.rec.cd.Load())
		}
		if again := mustPanic(e.c.Release); again != e.live {
			e.t.Errorf("second Release panicked = %v with the client alive = %v; want a panic after a live hold's release, none after a reclaimed one's", again, e.live)
		}
		return nil
	}},
	{name: "Call", handler: true, leaks: true, setup: (*ownEnv).lease, run: func(e *ownEnv) error {
		return e.c.Call(e.svc.EP(), &e.args)
	}},
	{name: "CallPooled", handler: true, setup: (*ownEnv).lease, run: func(e *ownEnv) error {
		return e.c.CallPooled(e.svc.EP(), &e.args)
	}},
	{name: "CallDeadline", handler: true, setup: (*ownEnv).lease, run: func(e *ownEnv) error {
		return e.c.CallDeadline(e.svc.EP(), &e.args, time.Minute)
	}},
	{name: "AsyncCall", handler: true, setup: (*ownEnv).lease, run: func(e *ownEnv) error {
		return e.c.AsyncCall(e.svc.EP(), &e.args)
	}},
	{name: "AllocPayload", leaks: true, run: func(e *ownEnv) error {
		_, _, err := e.c.AllocPayload(64)
		return err
	}},
	{name: "AttachBytes", leaks: true, run: func(e *ownEnv) error {
		return e.c.AttachBytes(&e.args, []byte("bytes"))
	}},
	{name: "Batch.Add+Flush", handler: true, setup: func(e *ownEnv) {
		e.b = e.c.NewBatch(e.svc.EP(), 4)
		e.lease()
	}, run: func(e *ownEnv) error {
		e.b.Add(&e.args)
		n, err := e.b.Flush()
		if (n == 1) != (err == nil) || e.b.Len() != 0 {
			e.t.Errorf("Flush = %d, %v with %d still staged", n, err, e.b.Len())
		}
		return err
	}},
	{name: "ReleasePayload", quiet: true, setup: (*ownEnv).lease, run: func(e *ownEnv) error {
		e.c.ReleasePayload(e.ref)
		e.c.ReleasePayload(e.ref) // of a lease already settled, by itself or by the reap: ignored
		return nil
	}},
}

// ownDeclarers lists who declares the death. declare returns once the
// death is declared and — every declarer reaps what it declares — the
// record is empty; inHandler says it is running inside the operation's
// handler.
var ownDeclarers = []struct {
	name    string
	declare func(e *ownEnv, inHandler bool)
}{
	{name: "Abandon from another goroutine", declare: func(e *ownEnv, _ bool) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.c.Abandon()
		}()
		<-done
	}},
	{name: "Abandon from its own handler", declare: func(e *ownEnv, inHandler bool) {
		if inHandler {
			e.c.Abandon()
			return
		}
		// Outside the operation: a plain call of the client's, whose handler
		// abandons it — the descriptor it runs on is condemned under it.
		if err := e.c.Call(e.kill.EP(), &Args{}); err != nil {
			e.t.Errorf("the carrier call: %v (a call in flight at the death completes)", err)
		}
	}},
}

func TestOwnershipIdentityEveryOrder(t *testing.T) {
	leakCheck(t)
	rows := 0
	for _, op := range ownOps {
		for point := range ownPoints {
			if point == deathInside && !op.handler {
				continue
			}
			for _, d := range ownDeclarers {
				rows++
				t.Run(fmt.Sprintf("%s/death %s/%s", op.name, ownPoints[point], d.name), func(t *testing.T) {
					e := newOwnEnv(t)
					if op.setup != nil {
						op.setup(e)
					}
					e.live = point != deathBefore
					switch point {
					case deathBefore:
						d.declare(e, false)
					case deathInside:
						fn := func() { d.declare(e, true) }
						e.inside.Store(&fn)
					}
					err := op.run(e)
					if point == deathAfter {
						d.declare(e, false)
					}
					e.finish(err, point == deathBefore && !op.quiet, op.handler && point != deathBefore)
				})
			}
		}
		if !op.leaks {
			continue
		}
		// The backstop can only follow the operation, and only where the
		// operation leaves the live client holding something: a clean
		// client's collection is not a death.
		rows++
		t.Run(op.name+"/death after/AddCleanup backstop", func(t *testing.T) {
			e := newOwnEnv(t)
			var rec *clientRec
			var err error
			func() {
				if op.setup != nil {
					op.setup(e)
				}
				e.live = true
				err = op.run(e)
				rec = e.c.rec // does not reach the Client
				e.c, e.b = nil, nil
				e.victim.Store(nil)
			}()
			waitCond(t, 10*time.Second, "the cleanup to declare the leaked client dead", func() bool {
				runtime.GC()
				return rec.state.Load() == crDead
			})
			e.finish(err, false, op.handler)
		})
	}
	t.Logf("%d rows", rows)
}

// finish holds one case to the table's identities. err is what the
// operation returned; abandoned, whether the death preceded its life
// check; ran, whether its handler must have run.
func (e *ownEnv) finish(err error, abandoned, ran bool) {
	t := e.t
	t.Helper()
	switch {
	case abandoned && !errors.Is(err, ErrClientAbandoned):
		t.Errorf("the operation on the dead client: err = %v, want ErrClientAbandoned", err)
	case !abandoned && err != nil:
		t.Errorf("the operation: err = %v, want nil (its life check came before the death)", err)
	}
	if ran {
		select {
		case <-e.ran:
		case <-time.After(5 * time.Second):
			t.Fatal("the operation's handler never ran")
		}
	}
	if e.c != nil {
		// Whatever the hold came to — released, taken back, condemned — the
		// dead client's Release is a quiet no-op, as often as it is called.
		if mustPanic(e.c.Release) || mustPanic(e.c.Release) {
			t.Error("Release of the dead client panicked")
		}
		if e.c.Held() || !e.c.Abandoned() {
			t.Errorf("the dead client: Held() = %v, Abandoned() = %v", e.c.Held(), e.c.Abandoned())
		}
		if err := e.c.Call(e.svc.EP(), &Args{}); !errors.Is(err, ErrClientAbandoned) {
			t.Errorf("a later Call on the dead client: %v", err)
		}
	}
	settled := func() bool {
		st := e.sys.Stats()[0]
		return st.HeldCDs == 0 && st.LeasesActive == 0 && st.QuarantinedCDs == 0 && e.svc.inFlightTotal() == 0
	}
	// eventually polls cond for up to 5 s and reports how it ended; the
	// caller prints the values that did not converge.
	eventually := func(cond func() bool) bool {
		for end := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(end); {
			time.Sleep(100 * time.Microsecond)
		}
		return cond()
	}
	// Polled only for what an accepted asynchronous request still owes: a
	// reap leaves nothing behind it.
	ok := eventually(settled)
	st := e.sys.Stats()[0]
	if !ok {
		t.Errorf("HeldCDs = %d, LeasesActive = %d, QuarantinedCDs = %d, %d in flight; want all 0",
			st.HeldCDs, st.LeasesActive, st.QuarantinedCDs, e.svc.inFlightTotal())
	}
	if st.AbandonedClients != 1 {
		t.Errorf("AbandonedClients = %d, want exactly 1", st.AbandonedClients)
	}
	if n := len(e.ran); n != 0 {
		t.Errorf("the operation's handler ran %d more times than the case accounts for", n)
	}
	// Workers joined, executors retired: every descriptor ever made is in
	// the pool, or was condemned and is in none.
	e.sys.Close()
	conserved := func() bool {
		st = e.sys.Stats()[0]
		return st.CDsCreated == int64(st.PooledCDs)+st.ScavengedCDs && e.sh.deadlineExecs() == 0
	}
	if !eventually(conserved) || !settled() {
		t.Errorf("after Close: CDsCreated = %d, PooledCDs = %d, ScavengedCDs = %d (want created = pooled + condemned), HeldCDs = %d, LeasesActive = %d, QuarantinedCDs = %d",
			st.CDsCreated, st.PooledCDs, st.ScavengedCDs, st.HeldCDs, st.LeasesActive, st.QuarantinedCDs)
	}
}
