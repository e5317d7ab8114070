// Package rt is the real-concurrency track of the reproduction: a
// PPC-style intra-process service-call facility for Go programs, built
// on the paper's design rules — in the common case a call must access
// no shared data and acquire no locks, and the resources used to
// service a call must be local to the caller.
//
// The mapping from the paper's machine to the Go runtime:
//
//   - processor        -> shard (callers bind to one; typically one
//     shard per GOMAXPROCS slot)
//   - worker process   -> the caller's goroutine crossing directly into
//     the server's handler (the pure PPC model)
//   - call descriptor  -> a per-shard recycled call context with a
//     scratch buffer (the "stack" serially shared by services)
//   - program ID       -> caller identity checked by the server's
//     authorization hook (naming and protection separated, §4.1)
//
// The Go scheduler hides true core pinning, so a shard is an
// approximation of a processor: when each calling goroutine sticks to
// its own shard, the facility touches only shard-local state and scales
// with GOMAXPROCS, while the locked and message-passing strawmen of
// rtbench's BenchmarkSyncCall saturate — the paper's Figure 3 shape.
//
// Every call, whichever entry point made it, is one path: the client
// half (Client.preflight: lease claim, life check, tenant charge), one
// entry (shard.enter: table read, health gate) that makes the call's
// record, and one of the record's two exits — fail before dispatch, the
// health evidence of recordOutcome after it. Between them the synchronous entry points run
// one core (System.callHeld; the two bounded ones split it at the handoff
// to an executor of the shard's pool), the asynchronous ones one submission.
//
// Two Figure 2 optimizations are carried over verbatim:
//
//   - Held call descriptors ("hold CD"): a Client keeps one call
//     descriptor across calls — acquired on the first Call (or an
//     explicit Hold), returned by Release/Close — so the warm
//     synchronous path performs no descriptor-pool CAS at all. A
//     Client is single-goroutine by contract, exactly as a process is
//     bound to a processor.
//   - Replicated service tables (§4.5.5): every shard owns a replica
//     of the entry-point table. Bind, Exchange, and Kill publish to
//     all replicas under the control-plane mutex; a call reads only
//     its own shard's copy, so the lookup line is shard-local.
//
// Together they make the warm synchronous call touch no shared
// mutable cache line and take no locked instruction: the admission and
// completion counters the kill protocol requires are plain writes on a
// stripe that follows the call descriptor (callStripe), a line the caller
// already owns, and soft Kill pays their fence (heavyBarrier).
//
// # Lifecycle and overload semantics
//
// The control paths honor the same discipline as the call path — the
// facility itself must never serialize callers:
//
//   - Soft kill (Kill with hard=false) is a quiescence protocol: the
//     service stops admitting new calls immediately, and Kill returns
//     only after every admitted call — including asynchronous requests
//     already accepted into a shard queue — has finished. Admission is
//     increment-then-check: a caller first counts itself in flight,
//     then re-validates the service state and backs out if a kill
//     intervened, so no call ever begins executing after Kill has
//     returned. Backed-out calls fail with ErrKilled and are counted
//     in Service.KilledBackouts. The drain polls the in-flight sum
//     (killPollInterval): a completing call tells nobody.
//   - Hard kill (hard=true) marks the entry dead at once. Asynchronous
//     requests still queued are discarded, not executed.
//   - Exchange replaces the handler atomically: calls in progress
//     finish on the old handler; new calls get the new one.
//   - Asynchronous submission is lock-free, bounded, and one path: each
//     shard owns one to three Vyukov-style rings, one per criticality
//     lane (Options.Lanes), and a capped worker pool. AsyncCall and
//     Batch.Flush are the same submission of n requests — one client
//     half, one admission, per request a ticket CAS and an in-place slot
//     write, one wakeup for the lot (§4.4); workers park on a per-shard
//     doorbell that submitters ring only when one is parked. A full ring
//     spins and yields a bounded time, then fails the unaccepted tail
//     with ErrBackpressure — or, on the lowest of two or more lanes,
//     sheds it at once with ErrShed: overload reaches the overloading
//     submitter, never other submitters as head-of-line blocking.
//   - Close marks each shard closed, sets the closed bit in each ring's
//     enqueue cursor (a later submission fails with ErrClosed; Close
//     waits for no submitter), and joins the workers once they have
//     drained every ticket claimed before the bit (CloseTimeout bounds
//     that, reporting ErrDrainTimeout). Synchronous calls use no
//     goroutines and keep working after Close.
//
// Calling Kill (soft) or Close from inside a handler of the service
// being drained deadlocks, exactly as joining yourself always does.
// Completion channels passed to Batch.SetNotify should be buffered: a
// worker delivers the notification non-blocking, waits a bounded time
// for an unready receiver, and then drops the notification (counted in
// ShardStats.NotifyDrops) — an abandoned channel costs a bounded wait,
// never a wedged worker.
package rt

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"weak"
)

// NumArgWords is the register-argument count, as in the paper: 8 words
// in and the same 8 variables out.
const NumArgWords = 8

// Args is the argument block of a call: the handler mutates it in
// place, like the PPC_CALL macro's eight variables.
type Args [NumArgWords]uint64

// OpFlagsWord is the conventional opcode/flags word index.
const OpFlagsWord = NumArgWords - 1

// OpFlags packs an opcode and flags into the conventional word.
func OpFlags(op uint32, flags uint32) uint64 { return uint64(op)<<32 | uint64(flags) }

// Op extracts the opcode.
func Op(w uint64) uint32 { return uint32(w >> 32) }

// Flags extracts the flag bits.
func Flags(w uint64) uint32 { return uint32(w) }

// SetOp sets the conventional opcode/flags word.
func (a *Args) SetOp(op, flags uint32) { a[OpFlagsWord] = OpFlags(op, flags) }

// RC returns the conventional return-code word.
func (a *Args) RC() uint64 { return a[OpFlagsWord] }

// SetRC sets the conventional return-code word.
func (a *Args) SetRC(rc uint64) { a[OpFlagsWord] = rc }

// EntryPointID names a service entry point: a small integer indexing a
// fixed table, exactly as in the paper (§4.5.5). Authentication is the
// server's business, so IDs are safe to pass around.
type EntryPointID uint16

// MaxEntryPoints bounds the service table (1024, as in the paper).
const MaxEntryPoints = 1024

// Handler services a call. The handler runs on the *caller's*
// goroutine (hand-off scheduling is implicit, concurrency equals the
// number of callers); ctx carries identity and the recycled scratch
// buffer.
type Handler func(ctx *Ctx, args *Args)

// Common errors.
var (
	// ErrBadEntryPoint: call to an unbound entry point.
	ErrBadEntryPoint = fmt.Errorf("rt: bad entry point")
	// ErrKilled: call to a killed entry point.
	ErrKilled = fmt.Errorf("rt: entry point killed")
	// ErrPermissionDenied: rejected by the service's authorization.
	ErrPermissionDenied = fmt.Errorf("rt: permission denied")
	// ErrNameTaken: duplicate name registration.
	ErrNameTaken = fmt.Errorf("rt: name already registered")
	// ErrUnknownName: lookup of an unregistered name.
	ErrUnknownName = fmt.Errorf("rt: unknown name")
	// ErrServerFault: the handler panicked; the call was aborted and
	// contained, the service remains available.
	ErrServerFault = fmt.Errorf("rt: server fault")
	// ErrClosed: asynchronous submission after System.Close.
	ErrClosed = fmt.Errorf("rt: system closed")
	// ErrBackpressure: asynchronous submission with the shard queue
	// full and the worker pool saturated; the request was not accepted.
	ErrBackpressure = fmt.Errorf("rt: async queue full (backpressure)")
	// ErrDrainTimeout: CloseTimeout expired with async work still in
	// flight; workers finish in the background.
	ErrDrainTimeout = fmt.Errorf("rt: close timed out draining async work")
	// ErrDeadline: the call's deadline expired (or its context was
	// canceled) before the handler finished. For a synchronous deadline
	// call the handler may still be running when this is returned, on
	// the deadline executor's own call descriptor (see CallDeadline).
	ErrDeadline = fmt.Errorf("rt: call deadline exceeded")
	// ErrServiceUnhealthy: the service's health gate is open on this
	// shard (too many consecutive faults or deadline expirations); the
	// call was fast-failed without admission. The gate half-opens after
	// HealthConfig.ProbeAfter and recovers on a successful probe.
	ErrServiceUnhealthy = fmt.Errorf("rt: service unhealthy (health gate open)")
	// ErrShed: the request was load-shed before admission — a
	// best-effort submission found its lane ring full (criticality-
	// ordered shedding drops the cheapest class first, without the
	// bounded backpressure wait), or the client's tenant is over its
	// token-bucket budget. Transient, like ErrBackpressure: capacity
	// frees and buckets refill, so a caller may back off and resubmit.
	ErrShed = fmt.Errorf("rt: request shed (lane overload or tenant budget)")
	// ErrClientAbandoned: operation on a client that was declared dead
	// (Client.Abandon or the leaked-client cleanup backstop) and whose
	// resources its declarer has reclaimed or is reclaiming. Terminal for
	// that client — not retryable; construct a fresh client instead.
	ErrClientAbandoned = fmt.Errorf("rt: client abandoned")
)

// FaultError is the concrete error a panicking handler produces; it
// wraps ErrServerFault (errors.Is) and carries the recovered panic
// value (errors.As).
type FaultError struct {
	// Val is the value the handler panicked with.
	Val any
}

func (e *FaultError) Error() string { return fmt.Sprintf("rt: server fault: %v", e.Val) }

// Unwrap makes errors.Is(err, ErrServerFault) hold for every handler
// fault.
func (e *FaultError) Unwrap() error { return ErrServerFault }

// serviceState values.
const (
	svcActive int32 = iota
	svcSoftKilled
	svcDead
)

// ServiceConfig describes a service to bind.
type ServiceConfig struct {
	// Name is the diagnostic (and registrable) service name.
	Name string
	// Handler is the steady-state call handler.
	Handler Handler
	// InitHandler, when non-nil, runs on the first call serviced
	// through each shard's context, then is replaced by Handler —
	// the worker-initialization pattern of §4.5.3.
	InitHandler Handler
	// Authorize, when non-nil, vets the caller's program ID.
	Authorize func(callerProgram uint32) bool
	// ScratchBytes sizes the per-call scratch buffer Ctx.Scratch returns
	// (default 4096, one "stack page"), allocated when a handler first
	// asks for it.
	ScratchBytes int
	// EP requests a specific well-known entry point (0 = allocate).
	EP EntryPointID
	// Health, when non-nil, arms the per-shard health gate for this
	// service (see HealthConfig). Nil leaves health gating off and the
	// call paths untouched.
	Health *HealthConfig
	// Lane is the default criticality class for asynchronous requests
	// to this service (lane.go). LaneDefault (the zero value) means
	// LaneNormal. A client with its own lane (ClientOptions.Lane)
	// overrides the service default per request. Ignored unless the
	// System was built with Options.Lanes >= 2.
	Lane Lane
}

// Service is a bound entry point.
type Service struct {
	ep   EntryPointID
	name string

	//ppc:atomic
	state atomic.Int32
	//ppc:atomic
	handler atomic.Pointer[Handler]

	authorize    func(uint32) bool
	initHandler  Handler
	scratchBytes int
	// lane is the service's default criticality class (immutable after
	// Bind; LaneDefault resolves to LaneNormal at submit).
	lane Lane
	// health, non-nil when the service was bound with a HealthConfig,
	// is immutable after Bind; the call paths branch on the nil check
	// alone, so an unconfigured service pays one predictable branch.
	health *HealthConfig

	// Per-shard counters, padded: no call ever writes a cache line
	// another shard's calls write.
	perShard []shardCounters

	// stripes lists the descriptor-owned call stripes (callDesc.stripeFor),
	// linked under stripeMu before their first increment and never
	// unlinked, so the sums below — soft Kill's drain among them — see
	// every admission wherever its descriptor has gone. Cold: a call
	// reaches its stripe through the descriptor.
	stripeMu sync.Mutex
	stripes  []*callStripe
}

// callStripe is one line of call counters. A synchronous call on a
// descriptor its caller owns (held, deadline) is admitted and completed
// on that descriptor's stripe (callDesc.stripeOf: one per descriptor and
// service), so the two counts have one serial writer each and are plain
// writes (Service.admit, Service.complete); callers sharing a shard do
// not share a stripe. A pooled call (callOn) and the asynchronous path
// count on the shard's embedded stripe, with locked instructions
// (Service.admitShared): a pooled descriptor serves any service. The
// in-flight count is admitted − completed − asyncDone, read only by
// control-plane code (kill drains, stats) through Service.sumStripes,
// always atomically.
//
// Service.Calls is derived, not counted: completed − unreturned. Every
// admitted synchronous call completes exactly once, and one whose
// handler did not return normally (denied, faulted) bumps the cold
// unreturned on its way out, so the warm call pays one completion write.
// Asynchronous completions count apart to stay out of that difference.
//
// A stripe is exactly one 64-byte line, allocated on its own (size class
// 64, so 64-aligned): writers on the two lines of one 128-byte sector run
// as fast as on distant lines (EXPERIMENTS.md E18).
//
//ppc:padded
type callStripe struct {
	//ppc:hotline(call)
	admitted int64 // synchronous admissions: written by Service.admit, admitShared and backOut alone
	//ppc:hotline(call)
	completed int64 // finished synchronous calls, however they ended: written by Service.complete and completeShared alone
	//ppc:hotline(call)
	asyncDone atomic.Int64 // finished asynchronous requests (shard stripes only)
	//ppc:hotline(call)
	unreturned atomic.Int64 // completed synchronous calls whose handler was denied or faulted
	//ppc:hotline(call)
	authFail atomic.Int64
	//ppc:hotline(call)
	backouts atomic.Int64
	_        [16]byte // exactly one line
}

// inFlight reads the stripe's admitted-but-not-finished count. A racing
// reader can see a completion ahead of its admission, a transiently
// negative value; control-plane loops compare the summed total against
// zero once the counters have stopped moving, where it is exact.
func (st *callStripe) inFlight() int64 {
	return atomic.LoadInt64(&st.admitted) - atomic.LoadInt64(&st.completed) - st.asyncDone.Load()
}

// calls reads the stripe's synchronous calls whose handler returned
// normally. Exact once the stripe's calls have settled; a denied or
// faulted call reads one low between its two counter writes.
func (st *callStripe) calls() int64 {
	return atomic.LoadInt64(&st.completed) - st.unreturned.Load()
}

// shardCounters is the (service, shard) counter block: the call stripe
// the pooled and asynchronous paths account on, the asynchronous
// admission counter, and the health gate. Held and deadline calls write
// none of it but the gate's evidence — their stripe follows the
// descriptor (callStripe).
//
// The submitter writes asyncAdm and the worker stripe.asyncDone, on
// separate lines, so neither invalidates the other's line per request.
//
// Async admissions have their own counter, asyncAdm, which is also the
// AsyncCalls statistic (one RMW is both admission and count); a rejected
// or backed-out submission decrements it again.
//
//ppc:padded
type shardCounters struct {
	// stripe is the shard's own call stripe: pooled synchronous calls
	// admit and complete on it, async workers complete on it.
	//
	//ppc:hotline
	stripe callStripe

	// Submission side: written by the admitting async submitter (inited
	// by the first dispatch through the shard).
	//
	//ppc:hotline(submit)
	asyncAdm atomic.Int64
	//ppc:hotline(submit)
	inited atomic.Bool
	_      [52]byte // pad the submission line; health evidence starts at 128

	// Health stripe (see health.go), written only while the service has
	// a health gate configured. The consecutive-outcome counters have no
	// single writer: every goroutine that settles one of this service's
	// calls on this shard writes them — clients sharing the shard
	// (ClientOptions{Shard: -1} round-robins), async workers, deadline
	// executors, and orphaning deadline callers.
	// Racing Store(0)/Add(1) pairs can lose or inflate an evidence run,
	// so the trip thresholds are an explicit heuristic (see the package
	// comment in health.go); the atomics keep the counters safe, not
	// exact.
	//
	//ppc:atomic
	//ppc:hotline(evidence)
	consecFaults atomic.Int32
	//ppc:atomic
	//ppc:hotline(evidence)
	consecTimeouts atomic.Int32
	_              [56]byte // keep completer-written health counters off the gate-state line

	// Gate state, written only on trip/probe/recover transitions, so
	// the per-call admission read (gateAdmit) hits a rarely-dirtied
	// line.
	//
	//ppc:atomic
	//ppc:hotline(gate)
	healthState atomic.Int32
	//ppc:atomic
	//ppc:hotline(gate)
	reopenAt atomic.Int64 // unix nanos after which a half-open probe may run
	//ppc:hotline(gate)
	healthTrips atomic.Int64
	//ppc:hotline(gate)
	healthRecovers atomic.Int64
	//ppc:hotline(gate)
	shedCalls atomic.Int64
	_         [24]byte // tile to 4 lines: perShard is a []shardCounters
}

// EP returns the entry point ID.
func (s *Service) EP() EntryPointID { return s.ep }

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// sumStripes folds f over every call stripe of the service, under the
// mutex newStripe links under (see Kill).
//
//ppc:coldpath -- control-plane walk: kill drain and diagnostics
func (s *Service) sumStripes(f func(*callStripe) int64) int64 {
	var n int64
	s.stripeMu.Lock()
	for i := range s.perShard {
		n += f(&s.perShard[i].stripe)
	}
	for _, st := range s.stripes {
		n += f(st)
	}
	s.stripeMu.Unlock()
	return n
}

// newStripe allocates a descriptor-owned call stripe and links it into
// the service's list before the caller's first increment (see Kill).
//
//ppc:coldpath -- once per (descriptor, service)
func (s *Service) newStripe() *callStripe {
	st := new(callStripe)
	s.stripeMu.Lock()
	s.stripes = append(s.stripes, st)
	s.stripeMu.Unlock()
	return st
}

// Calls sums, over every stripe, the synchronous calls whose handler
// returned normally.
func (s *Service) Calls() int64 {
	return s.sumStripes((*callStripe).calls)
}

// AsyncCalls sums the per-shard asynchronous admission counters: the
// number of async requests ever accepted (a request being rejected or
// backed out increments and decrements, netting zero once settled).
func (s *Service) AsyncCalls() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].asyncAdm.Load()
	}
	return n
}

// AuthFailures sums the authorization failures over every stripe.
func (s *Service) AuthFailures() int64 {
	return s.sumStripes(func(st *callStripe) int64 { return st.authFail.Load() })
}

// KilledBackouts sums the calls that were admitted but backed out
// because a kill intervened between admission and execution.
func (s *Service) KilledBackouts() int64 {
	return s.sumStripes(func(st *callStripe) int64 { return st.backouts.Load() })
}

// inFlightTotal sums admitted-but-not-finished calls: executing
// synchronous calls on every stripe plus asynchronous requests accepted
// into a shard queue (used by the soft-kill drain).
func (s *Service) inFlightTotal() int64 {
	return s.sumStripes((*callStripe).inFlight) + s.AsyncCalls()
}

// admitShared is admit on a stripe several callers write — the shard's,
// which pooled calls count on: the same increment-then-check, with a
// locked increment, which fences itself against Kill's state store. It
// and completeShared are the pooled path's legs, budgeted here, so the
// held call that branches past them (callHeld) is not charged for them.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (s *Service) admitShared(st *callStripe) bool {
	atomic.AddInt64(&st.admitted, 1)
	if s.state.Load() != svcActive {
		s.backOut(st)
		return false
	}
	return true
}

// completeShared is complete on a shared stripe: a locked increment.
//
//ppc:hotpath
//ppc:rmwbudget(1)
func (s *Service) completeShared(st *callStripe) { atomic.AddInt64(&st.completed, 1) }

// completeAsync is complete for a request a worker settled — executed,
// or expired in the queue: the shard stripe's asynchronous counter, so
// Service.Calls keeps counting synchronous calls only.
//
//ppc:hotpath
func (s *Service) completeAsync(st *callStripe) { st.asyncDone.Add(1) }

// backOut undoes a synchronous admission that lost the race with a
// kill.
//
//ppc:coldpath -- a kill intervened; the call is already failing
func (s *Service) backOut(st *callStripe) {
	st.backouts.Add(1)
	atomic.AddInt64(&st.admitted, -1)
}

// backOutN undoes n asynchronous admissions that lost the race with a
// kill — a submission that never reached the queue, or a request a hard
// kill discarded from it: each is counted as a backout.
//
//ppc:coldpath -- a kill intervened; the requests are already failing
func (s *Service) backOutN(counters *shardCounters, n int) {
	counters.stripe.backouts.Add(int64(n))
	counters.asyncAdm.Add(-int64(n))
}

// unadmit releases the in-flight admissions of requests a shard
// rejected (backpressure, shed or close). They were never accepted, so
// they are not kill backouts.
//
//ppc:coldpath -- runs only when the shard rejected part of a submission
func (s *Service) unadmit(counters *shardCounters, n int) {
	counters.asyncAdm.Add(-int64(n))
}

// System is the PPC facility instance.
type System struct {
	shards []shard

	// Control plane (binding, naming): mutex-protected — never on the
	// call fast path.
	mu       sync.Mutex
	nextEP   EntryPointID
	names    map[string]EntryPointID
	bindSeq  atomic.Uint64
	programs atomic.Uint32
	closed   atomic.Bool
	// killed lists the services Kill retracted from the tables, until they
	// are collected (cold: the conservation audit walks the tables and
	// this; a strong list would keep every killed Service reachable).
	killed []weak.Pointer[Service]

	// fhooks is the always-on fault-injection hook registry
	// (faultinject.go): one predictable atomic-bool load per guarded
	// site when no hook is installed.
	fhooks faultHooks
}

// Close shuts the system down: asynchronous submissions are rejected,
// the per-shard async workers drain the requests already accepted, and
// Close joins every worker before returning — afterwards Stats reports
// zero AsyncWorkers. Synchronous calls still work (they use no
// goroutines); Close exists so embedding programs do not leak workers.
// Close blocks for as long as in-flight handlers run; use CloseTimeout
// to bound the wait.
func (s *System) Close() {
	_ = s.CloseTimeout(0)
}

// CloseTimeout is Close with a bounded drain: it waits at most d for
// the async workers to finish and exit (d <= 0 waits indefinitely).
// If the deadline expires it returns ErrDrainTimeout; the workers keep
// draining in the background and exit when their handlers return.
// Idempotent; later calls return nil without waiting again.
func (s *System) CloseTimeout(d time.Duration) error {
	if s.closed.Swap(true) {
		return nil
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	drained := true
	for i := range s.shards {
		if !s.shards[i].close(s, deadline) {
			drained = false
		}
	}
	if !drained {
		return ErrDrainTimeout
	}
	return nil
}

// firstDynamicEP matches the simulator's reserved IDs.
const firstDynamicEP EntryPointID = 2

// Options configures a System beyond the shard count. The zero value
// of every field means "use the default"; see the field comments for
// the defaults.
type Options struct {
	// Shards is the shard count (default: GOMAXPROCS).
	Shards int
	// WorkerStallThreshold is how long an async worker may sit inside
	// one request batch before the shard watchdog counts it stuck, which
	// makes room for one more worker while requests wait behind it
	// (default defaultStallThreshold). Negative disables supervision.
	WorkerStallThreshold time.Duration
	// WatchdogInterval is the supervision scan period (default
	// defaultWatchdogInterval). It is also the one tick knob: the shard
	// tick that expires CallDeadline calls runs every millisecond from
	// a shard's first deadline call until Close, or every WatchdogInterval
	// when that is finer. Arming rounds the expiry up by one such tick
	// and expiry detection runs on the tick, so an expired CallDeadline
	// is settled at most ~2 ticks after its deadline and never before
	// the deadline has elapsed.
	WatchdogInterval time.Duration
	// OffloadThreshold is the AttachBytes transfer size (bytes) at
	// which the copy is staged on the shard's offload lane instead of
	// performed inline on the caller (default defaultOffloadThreshold,
	// ~64 KB). Negative disables the lane: every AttachBytes copies
	// inline. Payload descriptors and arena-backed zero-copy segments
	// (AllocPayload) are unaffected either way.
	OffloadThreshold int
	// Lanes is the number of async priority lanes per shard (lane.go),
	// clamped to [1, NumLaneClasses]. 0 or 1 builds one ring: every
	// request shares it and a full ring is ErrBackpressure after the
	// bounded wait, never ErrShed. 2 or 3 gives each criticality class
	// its own Vyukov ring, a 16:4:1 weighted dequeue (the top lane in
	// batches, lower lanes one per scan) and criticality-ordered shedding.
	Lanes int
	// AsyncQueueCap sizes each lane's ring (default defaultAsyncQueueCap,
	// at most 1<<16, rounded up to a power of two).
	AsyncQueueCap int
	// MaxWorkers bounds each shard's async worker pool (default 8, at
	// most 1<<16: each has a heartbeat slot, made up front). On a box with
	// fewer processors than workers, extra CPU-bound workers add no
	// service capacity but do hold claimed batches while descheduled —
	// latency-sensitive setups may want exactly one worker per shard.
	MaxWorkers int
	// CooperativeYield makes each worker yield the processor once per
	// serviced batch. On a single-P runtime with producers that sleep
	// between arrivals, a CPU-bound worker otherwise runs whole
	// scheduler quanta (~10ms) while submitters — critical-lane ones
	// included — sit runnable but unable to publish; the per-batch
	// yield bounds cross-lane submit latency by one batch service
	// time (EXPERIMENTS.md E17). Deliberately opt-in: under CPU-bound
	// producers that never sleep, the same yield hands each of them a
	// full scheduler quantum and starves the worker instead
	// (TestChaosLaneStorm pins that regime).
	CooperativeYield bool
}

// NewSystemOptions creates a facility with explicit Options.
func NewSystemOptions(o Options) *System {
	n := o.Shards
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &System{
		shards: make([]shard, n),
		nextEP: firstDynamicEP,
		names:  make(map[string]EntryPointID),
	}
	for i := range s.shards {
		s.shards[i].init(i)
		if o.MaxWorkers > 0 {
			s.shards[i].maxWorkers = int64(min(o.MaxWorkers, maxWorkersLimit))
		}
		s.shards[i].yieldPerBatch = o.CooperativeYield
		s.shards[i].configureLanes(o)
		s.shards[i].configureWatchdog(o)
		s.shards[i].configureArena(o)
		s.shards[i].reg = newClientRegistry(s, &s.shards[i])
	}
	s.programs.Store(1)
	return s
}

// NumShards returns the shard count.
func (s *System) NumShards() int { return len(s.shards) }

// Bind creates a service via the control plane and installs it in the
// lock-free service table.
func (s *System) Bind(cfg ServiceConfig) (*Service, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("rt: service %q needs a handler", cfg.Name)
	}
	if cfg.ScratchBytes < 0 {
		return nil, fmt.Errorf("rt: service %q negative scratch", cfg.Name)
	}
	if cfg.Lane > LaneBestEffort {
		return nil, fmt.Errorf("rt: service %q invalid lane %d", cfg.Name, cfg.Lane)
	}
	scratch := cfg.ScratchBytes
	if scratch == 0 {
		scratch = defaultScratchBytes
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ep := cfg.EP
	if ep == 0 {
		found := false
		for scanned := 0; scanned < MaxEntryPoints; scanned++ {
			cand := s.nextEP
			s.nextEP++
			if s.nextEP >= MaxEntryPoints {
				s.nextEP = firstDynamicEP
			}
			if s.Service(cand) == nil {
				ep, found = cand, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("rt: all %d entry points in use", MaxEntryPoints)
		}
	} else {
		if int(ep) >= MaxEntryPoints {
			return nil, fmt.Errorf("rt: entry point %d out of range", ep)
		}
		if s.Service(ep) != nil {
			return nil, fmt.Errorf("rt: entry point %d already bound", ep)
		}
	}

	svc := &Service{
		ep:           ep,
		name:         cfg.Name,
		authorize:    cfg.Authorize,
		initHandler:  cfg.InitHandler,
		scratchBytes: scratch,
		lane:         cfg.Lane,
		health:       normalizeHealth(cfg.Health),
		perShard:     make([]shardCounters, len(s.shards)),
	}
	h := cfg.Handler
	svc.handler.Store(&h)
	svc.state.Store(svcActive)
	s.publishAll(svc, h)
	return svc, nil
}

// publishAll installs svc into every shard's service-table replica
// (§4.5.5). Each shard gets its own freshly-allocated entry — the
// entry a shard's calls dereference is never written again, and never
// read by another shard. Shard 0, whose replica the control plane reads
// (Service), goes last. Caller holds s.mu.
func (s *System) publishAll(svc *Service, h Handler) {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].publish(svc.ep, &epEntry{svc: svc, h: h, counters: &svc.perShard[i]})
	}
}

// retractAll removes svc from every shard replica, shard 0's last, and
// lists it as killed, under the control-plane mutex, so retraction is
// serialized against Bind/Exchange publication.
func (s *System) retractAll(svc *Service) {
	s.mu.Lock()
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].publish(svc.ep, nil)
	}
	s.killed = append(slices.DeleteFunc(s.killed, func(w weak.Pointer[Service]) bool { return w.Value() == nil }), weak.Make(svc))
	s.mu.Unlock()
}

// Service returns the service at ep, or nil: shard 0's replica, written
// last on a Bind and cleared last on a Kill.
func (s *System) Service(ep EntryPointID) *Service {
	if e := s.shards[0].entry(ep); e != nil {
		return e.svc
	}
	return nil
}

// Exchange atomically replaces the handler behind an entry point —
// on-line server replacement (§4.5.2): calls in progress finish on the
// handler they resolved; new calls get the new one. The swap is
// published to every shard's service-table replica under the
// control-plane mutex, so by the time Exchange returns every shard
// resolves the new handler (shards observe the swap in publication
// order while it is in progress).
func (s *System) Exchange(ep EntryPointID, h Handler) error {
	if h == nil {
		return fmt.Errorf("rt: nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	svc := s.Service(ep)
	if svc == nil || svc.state.Load() != svcActive {
		return ErrBadEntryPoint
	}
	svc.handler.Store(&h)
	s.publishAll(svc, h)
	return nil
}

// killPollInterval is a soft kill's sleep between reads of the in-flight
// sum: it returns one poll after the last call finishes — ~1 ms on an idle
// process, where Go rounds a shorter sleep up (EXPERIMENTS.md E26).
const killPollInterval = 100 * time.Microsecond

// Kill deallocates an entry point. Soft kill (hard=false) stops new
// calls immediately and waits for every admitted call to drain —
// executing synchronous calls and asynchronous requests already
// accepted into shard queues alike; once Kill returns, no call of the
// service will ever execute. Hard kill marks the entry dead at once
// (§4.5.2); asynchronous requests still queued are discarded.
//
// The drain polls every killPollInterval: a completion tells nobody. A
// synchronous admission and completion on a descriptor's stripe are plain
// writes, so the kill pays the fence for both (heavyBarrier,
// docs/INVARIANTS.md): the one after the state store pairs with admit's
// write-then-load, so the drain sees the call or the call sees the kill;
// the one after the drain makes the writes of the handlers it waited for
// visible before Kill returns. A kill of a service with nothing in flight
// does not wait at all.
//
// The sum takes stripeMu, under which a stripe is linked before its first
// increment: a stripe the sum misses was linked after the state store, so
// its caller's re-check backs out. Stripes are never unlinked, so a call
// whose caller has gone (condemned descriptor, orphan) is waited for too.
func (s *System) Kill(ep EntryPointID, hard bool) error {
	svc := s.Service(ep)
	if svc == nil || svc.state.Load() == svcDead {
		return ErrBadEntryPoint
	}
	if !hard {
		svc.state.Store(svcSoftKilled)
		heavyBarrier()
		for svc.inFlightTotal() != 0 {
			time.Sleep(killPollInterval)
		}
		heavyBarrier()
	}
	svc.state.Store(svcDead)
	s.retractAll(svc)
	return nil
}

// Register binds a name to an entry point (the name-server role).
func (s *System) Register(name string, ep EntryPointID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.names[name]; dup {
		return ErrNameTaken
	}
	s.names[name] = ep
	return nil
}

// Lookup resolves a registered name.
func (s *System) Lookup(name string) (EntryPointID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.names[name]
	if !ok {
		return 0, ErrUnknownName
	}
	return ep, nil
}

// ShardStats reports one shard's pool and async lifecycle state.
type ShardStats struct {
	Shard      int
	CDsCreated int64
	PooledCDs  int
	// HeldCDs is the number of call descriptors currently pinned by
	// clients in held-CD mode (acquired by Hold or the first Call, not
	// yet Released); they are outside the free pool while held.
	HeldCDs int64
	// AsyncWorkers is the number of live async worker goroutines;
	// zero after Close has drained the shard.
	AsyncWorkers int64
	// WorkerExits counts workers that have terminated (all of them,
	// after Close).
	WorkerExits int64
	// AsyncQueueDepth is the number of accepted asynchronous requests
	// not yet picked up by a worker; AsyncQueueCap is the queue bound.
	AsyncQueueDepth int
	AsyncQueueCap   int
	// BackpressureRejects counts asynchronous submissions rejected
	// with ErrBackpressure — nonzero means the shard has been
	// overloaded past its queue and worker bounds.
	BackpressureRejects int64
	// LaneDepth is the per-lane queue depth by priority index
	// (0 critical, 1 normal, 2 best-effort); all zero on a single-lane
	// shard (whose depth is AsyncQueueDepth).
	LaneDepth [NumLaneClasses]int
	// ShedByLane counts submissions rejected at each lane's full ring
	// — immediate ErrShed for best-effort, bounded-wait
	// ErrBackpressure for the classes above it. Criticality-ordered
	// shedding shows up here as the best-effort entry growing first.
	ShedByLane [NumLaneClasses]int64
	// TenantThrottled counts submissions shed with ErrShed because the
	// client's tenant was over its token-bucket budget on this shard.
	TenantThrottled int64
	// NotifyDrops counts completion notifications dropped because
	// their channel had no receiver within the bounded notify wait —
	// nonzero usually means an unbuffered (or abandoned) channel was
	// passed to Batch.SetNotify.
	NotifyDrops int64
	// StuckWorkers is the number of async workers stalled past the stall
	// threshold at the watchdog's last scan (a gauge). Each one, up to
	// four, raises the shard's worker cap by one while it is stuck, so
	// AsyncWorkers may read up to MaxWorkers plus that many — a worker
	// is added only when requests are queued behind the stuck ones, and
	// the extra workers leave as they go idle once the stuck ones return.
	StuckWorkers int64
	// QuarantinedCDs is the number of call descriptors under a handler
	// orphaned by an expired deadline that has not returned yet (a gauge;
	// each is its deadline executor's own, and stays the executor's).
	QuarantinedCDs int64
	// DeadlineExpirations counts calls that failed with ErrDeadline on
	// this shard — synchronous orphans and asynchronous requests
	// discarded at dequeue alike.
	DeadlineExpirations int64
	// HealthTrips / HealthRecovers sum, over every service, this
	// shard's health-gate trips into the degraded state and recoveries
	// out of it; ShedCalls counts the calls the open gate fast-failed
	// with ErrServiceUnhealthy.
	HealthTrips    int64
	HealthRecovers int64
	ShedCalls      int64
	// LeasesActive is the number of payload leases currently held on
	// the shard's arena (a gauge; zero once every call touching a
	// payload has settled — including orphans, whose lease is dropped
	// when the handler returns).
	LeasesActive int64
	// OffloadedBytes counts payload bytes copied through the shard's
	// offload lane (staged AttachBytes transfers), by whichever copier
	// landed them — the worker or a stealing viewer.
	OffloadedBytes int64
	// OffloadQueueDepth is the number of staged copies whose bytes have
	// not landed yet (a gauge).
	OffloadQueueDepth int
	// ArenaGrows counts arena slab allocations, the first included (the
	// first payload's power of two, 4 KiB at least; every later slab
	// 2 MiB) — the strictly-cold growth path, like CDsCreated for the CD
	// pool.
	ArenaGrows int64
	// AbandonedClients counts clients declared dead on this shard — by
	// Client.Abandon or the leaked-client cleanup backstop — and
	// reclaimed by whoever declared it.
	AbandonedClients int64
	// ScavengedCDs counts held call descriptors a death took out of the
	// dead client's record: condemned, and the pool compensated.
	ScavengedCDs int64
	// ScavengedLeases counts payload leases (tracked allocations and
	// batch-staged transfers) a death took out of the dead client's
	// record and released.
	ScavengedLeases int64
	// TombstonedCompletions counts call completions that found their
	// client dead at exit: the finishing goroutine took its descriptor
	// back out of the record and repooled it, or found it condemned
	// already and walked away.
	TombstonedCompletions int64
}

// Stats returns per-shard pool statistics (diagnostics; walks the
// pools and the service table, not for the hot path). Health gating is
// striped per service: every service's shard-i stripe folds into shard
// i's view.
//
//ppc:coldpath -- diagnostics walk, deliberately off the call path
func (s *System) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].stats(i)
	}
	s.shards[0].foldHealth(out)
	return out
}
