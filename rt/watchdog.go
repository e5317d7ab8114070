package rt

import (
	"sync/atomic"
	"time"
)

// Per-shard worker supervision. An async worker that wedges inside a
// handler (a stuck device, an unbounded loop, an injected stall) takes
// one of the shard's bounded worker slots with it; enough of them and
// the ring stops draining even though the shard looks alive. The
// watchdog is the containment: each worker stamps a per-worker
// heartbeat line around every batch it services, and a per-shard
// supervisor goroutine scans those lines on a coarse tick. A worker
// stuck past the stall threshold is *compensated* — a bounded
// replacement worker is spawned so the ring keeps draining — and when
// the stuck worker finally returns, the compensation is revoked: a
// retire token makes exactly one surplus worker exit, converging the
// pool back to its configured cap.
//
// The same goroutine also drives deadline expiry (deadline.go): every
// tick refreshes the shard's coarse clock and walks the shard's pool of
// deadline executors, orphaning the callers whose deadline has come
// due — and the liveness epoch of the clients enrolled in one (owner.go),
// the only part of domain death that waits for a tick: every other death
// is settled where it is declared. Once the shard has an executor the
// tick period tightens to the deadline tick (so expiry latency is bounded
// by it) and the loop keeps ticking even after shard close until the last
// executor has exited —
// supervision and the tick have separate lifecycles: supervision runs
// only when a stall threshold is configured and the shard is open; the
// tick runs whenever either needs it.
//
// Design rules carried over from the rest of the package:
//
//   - The warm path pays one plain store per *batch* (the heartbeat
//     stamp), on a line only that worker writes and only the watchdog
//     reads — no shared RMW, no lock.
//   - The watchdog itself is pure cold path: it runs on its own
//     goroutine, on a millisecond-scale tick, and takes qMu only to
//     spawn.
//   - Replacements are bounded (maxReplacements) and accounted
//     (ShardStats.ReplacementsSpawned / ReplacementsReclaimed), so a
//     permanently wedged handler degrades the shard by a constant, not
//     by an unbounded goroutine leak.

// Supervision defaults (Options overrides them per System).
const (
	// defaultStallThreshold is how long a worker may sit inside one
	// batch before it is counted stuck.
	defaultStallThreshold = 20 * time.Millisecond
	// defaultWatchdogInterval is the supervision scan period.
	defaultWatchdogInterval = 5 * time.Millisecond
	// maxReplacements bounds how many replacement workers a shard may
	// run beyond its normal worker cap at once.
	maxReplacements = 4
)

// coarseClock is a shard-local cached unix-nano word: one goroutine
// refreshes it with a real time.Now() read (the tick loop below, the
// submit slow path's spin epochs, the worker batch drain) and every
// other path loads it for free. Padded so the refresh never dirties a
// neighbour's line (machine-checked; see //ppc:padded in
// docs/INVARIANTS.md).
//
//ppc:padded
type coarseClock struct {
	//ppc:atomic
	//ppc:hotline
	ns atomic.Int64
	_  [56]byte
}

// read returns the cached clock. Staleness is bounded by the refresh
// cadence of whoever is driving the clock (≤ one tick once the shard has
// a deadline executor).
//
//ppc:hotpath
func (c *coarseClock) read() int64 { return c.ns.Load() }

// refresh reads the real clock and publishes it.
//
//ppc:coldpath -- one real clock read per tick / spin epoch / drained batch
func (c *coarseClock) refresh() int64 {
	n := time.Now().UnixNano()
	c.ns.Store(n)
	return n
}

// workerBeat is one worker's heartbeat line: the worker stamps state
// (one plain atomic store) when it enters and leaves a batch; the
// watchdog reads it on its tick. One worker writes the line and the
// watchdog reads it, so the padding keeps beats from false-sharing
// with their neighbours.
//
// The stamp is a packed progress word, not a timestamp: time.Now() per
// batch costs ~20 ns at batch size 1, which is real money on a ~110 ns
// async path. The watchdog supplies the clock instead — it counts its
// own ticks while a busy worker's progress word stays unchanged.
//
// One worker owns the whole line (the fields share the beat group by
// design — a single writer), and shard.beats is a []workerBeat, so the
// layout analyzer also checks the 64-byte tiling that keeps neighbour
// beats from false-sharing.
//
//ppc:padded
type workerBeat struct {
	// state packs the worker's batch sequence number (bits 63..1) with a
	// busy bit (bit 0): the worker stores seq<<1|1 entering a batch and
	// seq<<1 leaving it. 0 means idle/parked.
	//
	//ppc:atomic
	//ppc:hotline(beat)
	state atomic.Uint64
	// inUse marks the slot claimed by a live worker.
	//
	//ppc:atomic
	//ppc:hotline(beat)
	inUse atomic.Bool
	// compensated marks that the watchdog has spawned a replacement for
	// this (stuck) worker. The worker clears it on batch exit and turns
	// the revoked grant into a retire token.
	//
	//ppc:atomic
	//ppc:hotline(beat)
	compensated atomic.Bool
	_           [48]byte // tile to one line (shard.beats is a []workerBeat)
}

// configureWatchdog applies Options' supervision knobs (called from
// NewSystemOptions, once per shard, before any worker exists).
//
//ppc:coldpath -- construction-time configuration
func (sh *shard) configureWatchdog(o Options) {
	sh.stallThreshold = defaultStallThreshold
	if o.WorkerStallThreshold != 0 {
		sh.stallThreshold = o.WorkerStallThreshold // negative disables
	}
	sh.watchdogInterval = defaultWatchdogInterval
	if o.WatchdogInterval > 0 {
		sh.watchdogInterval = o.WatchdogInterval
	}
	// +1: the offload worker (offload.go) shares the beat table so a
	// wedged staging copy is supervised like a wedged handler.
	sh.beats = make([]workerBeat, sh.maxWorkers+maxReplacements+1)
	sh.dlTick = min(deadlineTick, sh.watchdogInterval)
	sh.clock.refresh()
}

// claimBeat takes a free heartbeat slot for a starting worker. A nil
// return (more workers than slots — possible only if maxWorkers was
// raised after construction) leaves the worker unsupervised but
// otherwise fully functional.
//
//ppc:coldpath -- worker startup
func (sh *shard) claimBeat() *workerBeat {
	for i := range sh.beats {
		b := &sh.beats[i]
		if !b.inUse.Load() && b.inUse.CompareAndSwap(false, true) {
			b.state.Store(0)
			b.compensated.Store(false)
			return b
		}
	}
	return nil
}

// releaseBeat returns a worker's heartbeat slot on exit. A pending
// compensation is settled here too: if the watchdog replaced this
// worker and the worker exits before clearing the flag on a batch
// boundary, the grant is revoked and a surplus worker retired, exactly
// as clearCompensation would have.
//
//ppc:coldpath -- worker exit
func (sh *shard) releaseBeat(b *workerBeat) {
	if b == nil {
		return
	}
	sh.clearCompensation(b)
	b.state.Store(0)
	b.inUse.Store(false)
}

// clearCompensation revokes a replacement grant once its stuck worker
// has returned: the extra headroom is withdrawn and one retire token is
// minted so exactly one surplus worker exits at its next loop check.
//
//ppc:coldpath -- runs only after a stall was detected and compensated
func (sh *shard) clearCompensation(b *workerBeat) {
	if b.compensated.Swap(false) {
		sh.extraGrant.Add(-1)
		sh.retire.Add(1)
	}
}

// tryRetire consumes one retire token, if any are outstanding. The
// caller (a worker, at the top of its loop) exits when it returns true
// — the CAS loop guarantees one token retires exactly one worker.
//
//ppc:hotpath
func (sh *shard) tryRetire() bool {
	for {
		r := sh.retire.Load()
		if r <= 0 {
			return false
		}
		if sh.retire.CompareAndSwap(r, r-1) {
			sh.replacementsReclaimed.Add(1)
			return true
		}
	}
}

// startTick makes sure the shard's tick loop is running — the one place
// it is started — freshens the coarse clock so a first arm's rounding
// starts from a current reading, and has a loop that is already running
// re-pick its period now instead of after its next tick: a first deadline
// executor made behind a loop on the supervision interval would
// otherwise settle its first call up to one such interval late.
// Supervision starts it ahead of the first worker (spawnWorker, when a
// stall threshold is configured and the shard is open); a deadline
// executor starts it without either condition and a liveness-enrolled
// client on an open shard — synchronous calls, deadlines included, keep
// working after Close, and a loop started behind a close finds stop
// closed and goes straight to drain mode. A death declaration starts
// none: whoever declares it reclaims (owner.go).
//
//ppc:coldpath -- tick startup: first worker, a new executor, a liveness enrolment
func (sh *shard) startTick(sys *System) {
	sh.qMu.Lock()
	if !sh.watchdogOn {
		sh.watchdogOn = true
		go sh.watchdogLoop(sys)
	}
	sh.qMu.Unlock()
	sh.clock.refresh()
	sendToken(sh.retick)
}

// watchdogLoop refreshes the coarse clock, expires due deadlines, and
// scans the shard's heartbeat slots. The tick period is the supervision
// interval while the shard has no deadline executor and tightens to the
// deadline tick once it has. Not joined by close: after stop the loop
// sheds supervision and keeps ticking until the last executor has exited,
// so armed deadlines still fire during (and after) a drain. Pure cold
// path: it shares no line with the warm call paths.
//
//ppc:coldpath -- supervision and deadline scan loop, off every call path
func (sh *shard) watchdogLoop(sys *System) {
	period := sh.tickPeriod()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	repick := func() {
		if want := sh.tickPeriod(); want != period {
			period = want
			ticker.Reset(period)
		}
	}
	// Per-slot scan memory, private to this goroutine: the last progress
	// word seen and how many consecutive supervision rounds it has been
	// busy without changing. A worker is stuck once that run covers
	// stallThreshold; supervision rounds run on the watchdogInterval
	// cadence regardless of how tight the deadline tick is.
	last := make([]uint64, len(sh.beats))
	stuckTicks := make([]int, len(sh.beats))
	stuckAfter := int(sh.stallThreshold / sh.watchdogInterval)
	if stuckAfter < 1 {
		stuckAfter = 1
	}
	stopCh := sh.stop
	stopping := false
	var lastSupervise int64
	for {
		select {
		case <-stopCh:
			stopping = true
			stopCh = nil
		case <-sh.retick:
			// startTick: only the period can have changed, and the liveness
			// epoch counts ticks — no tick's work here.
			repick()
			continue
		case <-ticker.C:
		}
		now := sh.clock.refresh()
		// Tenant token buckets are credited from the same coarse clock,
		// once per tick — the warm admission path never reads a clock.
		sh.refillTenants(now)
		sh.expireDeadlines(now)
		// Liveness rides the same tick (owner.go): the epoch advances and
		// an enrolled client past its budget is declared dead — and
		// reclaimed, here. One uncontended lock when nobody is enrolled.
		sh.livenessTick()
		repick()
		if stopping {
			// Drain mode: no supervision, tick until every deadline executor
			// has exited (the calls in flight at Close are over). The exit
			// handshake runs under qMu against startTick: either this loop
			// sees the new executor and stays, or it clears watchdogOn first
			// and newExec starts a fresh loop.
			sh.qMu.Lock()
			if sh.deadlineExecs() == 0 {
				sh.watchdogOn = false
				sh.qMu.Unlock()
				return
			}
			sh.qMu.Unlock()
			continue
		}
		if sh.stallThreshold > 0 && now-lastSupervise >= int64(sh.watchdogInterval) {
			lastSupervise = now
			sh.superviseTick(sys, last, stuckTicks, stuckAfter)
		}
	}
}

// tickPeriod picks the loop's tick: the deadline tick while the shard
// has a deadline executor (expiry latency is bounded by the tick), the
// supervision interval otherwise (no reason to wake faster).
//
//ppc:coldpath -- watchdog-goroutine bookkeeping
func (sh *shard) tickPeriod() time.Duration {
	if sh.deadlineExecs() > 0 {
		return sh.dlTick
	}
	return sh.watchdogInterval
}

// superviseTick is one supervision scan: count stuck workers,
// compensate newly-stuck ones with bounded replacements, and ring the
// doorbell when a parked worker is needed (a retire token to consume,
// or a non-empty ring with everyone parked — the lost-wakeup and
// stalled-publish safety net; ring.stalled makes the latter visible).
//
//ppc:coldpath -- supervision scan, off every call path
func (sh *shard) superviseTick(sys *System, last []uint64, stuckTicks []int, stuckAfter int) {
	stuck := int64(0)
	for i := range sh.beats {
		b := &sh.beats[i]
		if !b.inUse.Load() {
			last[i], stuckTicks[i] = 0, 0
			continue
		}
		s := b.state.Load()
		if s&1 == 0 || s != last[i] {
			// Idle, or it made progress since the previous tick.
			last[i], stuckTicks[i] = s, 0
			continue
		}
		stuckTicks[i]++
		if stuckTicks[i] < stuckAfter {
			continue
		}
		stuck++
		if !b.compensated.Load() && sh.extraGrant.Load() < maxReplacements {
			// Compensate: grant headroom for one replacement so the ring
			// keeps draining past the wedged worker.
			b.compensated.Store(true)
			sh.extraGrant.Add(1)
			if sh.spawnReplacement(sys) {
				sh.replacementsSpawned.Add(1)
			} else {
				// Shard closing (or a concurrent stop): revoke the grant
				// rather than leave phantom headroom behind. The stuck
				// worker may have recovered concurrently and revoked it
				// already via clearCompensation — the Swap guarantees
				// exactly one side decrements extraGrant (a plain Store
				// here would double-revoke, eroding replacement headroom
				// permanently). If the worker won, its minted retire
				// token has no replacement to retire and one pool worker
				// exits early; the pool respawns on demand (wake /
				// shard.submit), so that is a transient, not a leak.
				if b.compensated.Swap(false) {
					sh.extraGrant.Add(-1)
				}
			}
		}
	}
	sh.stuckWorkers.Store(stuck)
	if (sh.retire.Load() > 0 || sh.queuesStalled() || !sh.queuesEmpty()) &&
		sh.parked.Load() != 0 {
		sendToken(sh.doorbell)
	}
}

// spawnReplacement starts one replacement worker, allowed to exceed
// maxWorkers by the currently granted compensation headroom. Reports
// whether a worker was actually started.
//
//ppc:coldpath -- stall compensation, bounded by maxReplacements
func (sh *shard) spawnReplacement(sys *System) bool {
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if sh.closed.Load() || sh.workers.Load() >= sh.maxWorkers+sh.extraGrant.Load() {
		return false
	}
	sh.workers.Add(1)
	sh.wg.Add(1)
	go sh.workerLoop(sys)
	return true
}
