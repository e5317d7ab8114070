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
// supervisor goroutine scans those lines on a coarse tick and stores how
// many workers are stuck past the stall threshold. That count is the
// whole compensation. The pool's cap is maxWorkers plus the stuck
// workers, at most maxReplacements of them (workerCap), so a wedged
// worker makes room by being counted, and spawnWorker — the pool's one
// growth rule — fills the room when work is waiting: the tick calls it
// when a worker is stuck and a ring is non-empty, as a submitter does on
// an empty pool or a full ring. When the stuck worker returns the cap
// falls back at the next scan, and a worker that reaches its park point
// above the cap leaves instead of parking (leave): the pool shrinks back
// one worker per surplus, and only a worker with nothing to do leaves.
//
// The same goroutine also drives deadline expiry (deadline.go): every
// tick refreshes the shard's coarse clock and walks the shard's pool of
// deadline executors, orphaning the callers whose deadline has come due.
// Those are the tick's three jobs — the coarse clock, deadline expiry and
// worker supervision — and nothing else waits for it: a death is settled
// where it is declared (owner.go), and a tenant bucket is refilled by the
// throttled caller that finds it empty (tenant.go). Once the shard has an
// executor the tick period tightens to the deadline tick (so expiry
// latency is bounded by it) and the loop keeps ticking even after shard
// close until the last executor has exited — supervision and the tick
// have separate lifecycles: supervision runs only when a stall threshold
// is configured and the shard is open; the tick runs whenever either
// needs it, so a sync-only System never starts one.
//
// Design rules carried over from the rest of the package:
//
//   - The warm path pays one plain store at each end of a *batch* (the
//     heartbeat stamps), on a line only that worker writes and only the
//     watchdog reads — no shared RMW, no lock.
//   - The watchdog itself is pure cold path: it runs on its own
//     goroutine, on a millisecond-scale tick, and takes qMu only to
//     spawn.
//   - Growth past maxWorkers is bounded (maxReplacements), so a
//     permanently wedged handler degrades the shard by a constant, not
//     by an unbounded goroutine leak — and costs no goroutine at all
//     while nothing is queued behind it. ShardStats.AsyncWorkers and
//     StuckWorkers show it.

// Supervision defaults (Options overrides them per System).
const (
	// defaultStallThreshold is how long a worker may sit inside one
	// batch before it is counted stuck.
	defaultStallThreshold = 20 * time.Millisecond
	// defaultWatchdogInterval is the supervision scan period.
	defaultWatchdogInterval = 5 * time.Millisecond
	// maxReplacements bounds how many stuck workers raise a shard's
	// worker cap: the most workers it runs beyond maxWorkers at once.
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

// workerBeat is one async worker's heartbeat line: the worker stamps
// state (one plain atomic store) when it enters and leaves a batch; the
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
	_     [52]byte // tile to one line (shard.beats is a []workerBeat)
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
	sh.beats = make([]workerBeat, sh.maxWorkers+maxReplacements)
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
			return b
		}
	}
	return nil
}

// releaseBeat returns a worker's heartbeat slot on exit.
//
//ppc:coldpath -- worker exit
func (sh *shard) releaseBeat(b *workerBeat) {
	if b == nil {
		return
	}
	b.state.Store(0)
	b.inUse.Store(false)
}

// workerCap is the async pool's cap: maxWorkers, plus one for every
// worker the last supervision scan counted stuck, at most
// maxReplacements of them. A wedged worker makes room by being counted;
// the room closes again at the first scan after it returns.
//
//ppc:coldpath -- pool growth and shrink decisions, off the steady submit path
func (sh *shard) workerCap() int64 {
	return sh.maxWorkers + min(sh.stuckWorkers.Load(), maxReplacements)
}

// leave is the pool's one shrink rule: a worker at its park point while
// the pool holds more workers than workerCap admits takes itself out
// instead of parking. The re-check and the decrement run under qMu, the
// lock spawnWorker admits under, so exactly one worker leaves per
// surplus and its beat slot is free before a spawn can fill the room.
// Reports whether the worker left; its caller then returns.
//
//ppc:coldpath -- a worker about to park while the pool is over its cap
func (sh *shard) leave(beat *workerBeat) bool {
	if sh.workers.Load() <= sh.workerCap() {
		return false
	}
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if sh.workers.Load() <= sh.workerCap() {
		return false
	}
	sh.releaseBeat(beat)
	sh.workers.Add(-1)
	return true
}

// startTick makes sure the shard's tick loop is running — the one place
// it is started — freshens the coarse clock so a first arm's rounding
// starts from a current reading, and has a loop that is already running
// re-pick its period now instead of after its next tick: a first deadline
// executor made behind a loop on the supervision interval would
// otherwise settle its first call up to one such interval late.
// Supervision starts it ahead of the first worker (spawnWorker, when a
// stall threshold is configured and the shard is open); a deadline
// executor starts it without either condition — synchronous calls,
// deadlines included, keep working after Close, and a loop started behind
// a close finds stop closed and goes straight to drain mode. Nothing else
// does: a death declaration reclaims where it is declared (owner.go).
//
//ppc:coldpath -- tick startup: first worker, a new executor
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
			// startTick: only the period can have changed — no tick's work here.
			repick()
			continue
		case <-ticker.C:
		}
		now := sh.clock.refresh()
		sh.expireDeadlines(now)
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
		// Half a tick of slack, or a tick that lands early skips its round.
		if sh.stallThreshold > 0 && now-lastSupervise >= int64(sh.watchdogInterval-period/2) {
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

// superviseTick is one supervision scan: count the stuck workers and
// store the gauge, which moves the pool's cap (workerCap); grow the pool
// into the room a stuck worker made when a ring has work behind it; and
// ring the doorbell when a parked worker is needed (a surplus one to
// leave, or a non-empty ring with everyone parked — the lost-wakeup and
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
		if stuckTicks[i] >= stuckAfter {
			stuck++
		}
	}
	sh.stuckWorkers.Store(stuck)
	if stuck > 0 && !sh.queuesEmpty() {
		sh.spawnWorker(sys)
	}
	if (sh.workers.Load() > sh.workerCap() || sh.queuesStalled() || !sh.queuesEmpty()) &&
		sh.parked.Load() != 0 {
		sendToken(sh.doorbell)
	}
}
