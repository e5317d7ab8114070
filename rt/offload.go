package rt

import (
	"runtime"
	"sync/atomic"
)

// The copy-offload lane: staging memcpys for large AttachBytes
// transfers off the caller's critical path. The motivating shape is
// memory-operation offloading (PAPERS.md): the caller of a large
// transfer should return after publishing a descriptor, not after a
// memcpy — the copy itself is delegated to a per-shard offload worker
// and overlaps with whatever the caller does next. The handler-side
// view (Ctx.Payload) rendezvouses with the staging copy: it waits for
// the bytes to land before exposing them, so handlers never observe a
// half-copied segment.
//
// The lane is deliberately small and fail-soft:
//
//   - A fixed slot table (offloadSlots) is both the queue and the
//     in-flight registry: a view can tell whether its segment is still
//     staging with a lock-free scan, with no side allocation per job.
//   - Saturation never surfaces a new error: when every slot is busy
//     (or the lane is disabled) AttachBytes just performs the copy
//     inline, exactly as below the threshold — the ErrBackpressure
//     discipline of the submit paths is untouched.
//   - Any waiter may steal a staged job (the claim CAS below): a view
//     that arrives before the worker simply does the copy itself, so
//     correctness never depends on worker scheduling — the worker is a
//     throughput optimization, not a liveness requirement.
//   - For the same reason the worker takes no heartbeat slot: a slow
//     copy blocks nobody (a viewer that needs a staged copy steals it),
//     so the watchdog has nothing to compensate and supervises only the
//     async pool.
//
// A stager publishes its job and then loads shard.closed (offloadCopy),
// close stores closed and then drains the table: the drain sees the staged
// slot or the stager sees the close and lands the copy itself, so no
// staged job outlives Close whether or not a worker ever ran.

// defaultOffloadThreshold is the transfer size at which AttachBytes
// stages the copy instead of performing it inline (~64 KB: the
// crossover where memcpy time dwarfs the descriptor publish).
const defaultOffloadThreshold = 64 << 10

// offloadSlots is the lane's fixed job capacity. Enough to pipeline a
// burst of large transfers; beyond it the caller copies inline.
const offloadSlots = 8

// Job lifecycle states.
const (
	// jobEmpty: slot unused.
	jobEmpty uint32 = iota
	// jobFilling: a producer claimed the slot and is writing src/dst.
	jobFilling
	// jobStaged: the copy is published and pending.
	jobStaged
	// jobCopying: a copier (worker or stealing viewer) claimed it.
	jobCopying
)

// offloadJob is one staged copy. The struct tiles exactly one cache
// line (pinned in layout_test.go): the slot is a single-line handoff
// between the producing caller, the copying worker, and any waiting
// viewer, like ringSlot one level up.
type offloadJob struct {
	// state is the job lifecycle word and the slot's publish word: the
	// producer's jobStaged store releases src, dst, and ref to the
	// copier; the claim CAS (jobStaged → jobCopying) acquires them.
	//
	//ppc:atomic
	//ppc:publishes(src, dst, ref)
	state atomic.Uint32
	// ref is the descriptor being staged, the word waiting views scan:
	// nonzero from publish until the copy has landed. The zero store is
	// the release edge for the staged bytes: the copier fills dst, then
	// clears ref, and a viewer that no longer finds its descriptor here
	// may read the segment.
	//
	//ppc:atomic
	//ppc:publishes(dst)
	ref atomic.Uint64
	src []byte
	dst []byte
}

// offloadLane is a shard's staging lane: the slot table, the worker's
// wake machinery, and the stat counters. Reached via a pointer from
// the shard; the slots themselves are the only warm state.
type offloadLane struct {
	// threshold is the staging cutoff (bytes); <= 0 disables the lane.
	threshold int
	slots     [offloadSlots]offloadJob

	// doorbell / parked: the worker's wake pair, same Dekker discipline
	// as the shard's async pool — producers ring only when the worker
	// advertises itself parked.
	doorbell chan struct{}
	//ppc:atomic
	parked atomic.Int64
	// running is the worker-count word (0 or 1); spawn is elected by
	// ensureOffloadWorker under qMu.
	//ppc:atomic
	running atomic.Int64

	// bytes counts payload bytes that went through the lane
	// (ShardStats.OffloadedBytes), by whichever copier landed them.
	bytes atomic.Int64
}

func (l *offloadLane) init(threshold int) {
	l.threshold = threshold
	l.doorbell = make(chan struct{}, 1)
}

// stage claims a free slot and publishes one copy job. Reports false
// when the lane is saturated — the caller copies inline.
//
//ppc:coldpath -- large-transfer staging; the alternative is the memcpy itself
func (l *offloadLane) stage(ref PayloadRef, src, dst []byte) bool {
	for i := range l.slots {
		j := &l.slots[i]
		//ppc:nopublish -- slot claim: jobFilling carries no payload, the jobStaged store below publishes
		if j.state.Load() == jobEmpty && j.state.CompareAndSwap(jobEmpty, jobFilling) {
			j.src, j.dst = src, dst
			j.ref.Store(uint64(ref))
			j.state.Store(jobStaged)
			return true
		}
	}
	return false
}

// complete performs one claimed job: land the bytes, signal waiting
// views (the ref clear), free the slot, and drop the copy lease. The
// caller owns the slot via the jobStaged→jobCopying CAS.
//
//ppc:coldpath -- the staged memcpy itself
func (l *offloadLane) complete(j *offloadJob, arena *shardArena) {
	ref := PayloadRef(j.ref.Load())
	copy(j.dst, j.src)
	l.bytes.Add(int64(len(j.src)))
	j.src, j.dst = nil, nil
	j.ref.Store(0)
	//ppc:nopublish -- slot recycling: the ref clear above already released the landed bytes
	j.state.Store(jobEmpty)
	arena.release(ref)
}

// drain completes every currently staged job — the worker's sweep and
// stop path, and close's no-worker fallback — and reports whether it
// landed any. Jobs another copier already claimed are left to that
// copier.
//
//ppc:coldpath -- the staged memcpys; the caller's descriptor publish is the hot half
func (l *offloadLane) drain(arena *shardArena) bool {
	did := false
	for i := range l.slots {
		j := &l.slots[i]
		//ppc:nopublish -- copier claim: acquires the staged fields, stores no payload
		if j.state.Load() == jobStaged && j.state.CompareAndSwap(jobStaged, jobCopying) {
			l.complete(j, arena)
			did = true
		}
	}
	return did
}

// waitStaged blocks until ref's staging copy has landed. The common
// case is a short scan that finds nothing (the worker beat us here);
// a view that arrives first steals the job and does the copy itself,
// so the wait is bounded by one memcpy regardless of scheduling.
//
//ppc:coldpath -- offload rendezvous, large transfers only
func (l *offloadLane) waitStaged(ref PayloadRef, arena *shardArena) {
	w := uint64(ref)
	for {
		pending := false
		for i := range l.slots {
			j := &l.slots[i]
			if j.ref.Load() != w {
				continue
			}
			pending = true
			//ppc:nopublish -- copier claim: acquires the staged fields, stores no payload
			if j.state.Load() == jobStaged && j.state.CompareAndSwap(jobStaged, jobCopying) {
				// Steal: we need the bytes now; the worker is elsewhere.
				l.complete(j, arena)
				return
			}
		}
		if !pending {
			return
		}
		runtime.Gosched()
	}
}

// queueDepth counts jobs whose bytes have not landed yet
// (ShardStats.OffloadQueueDepth).
//
//ppc:coldpath -- diagnostics walk
func (l *offloadLane) queueDepth() int {
	n := 0
	for i := range l.slots {
		if l.slots[i].ref.Load() != 0 {
			n++
		}
	}
	return n
}

// offloadCopy stages one large transfer: lease a destination segment,
// take the copy job's second lease (the job must keep the slab alive
// even if the call settles before the copy lands), publish the job, and
// then load closed — the store-then-load pair with close's — landing the
// copy itself, the steal a viewer does, if it reads closed. A full table
// falls back to an inline copy — the caller gets a valid attached segment
// either way, staging is purely an optimization.
//
//ppc:coldpath -- large-transfer staging; the inline memcpy is the baseline being avoided
func (sh *shard) offloadCopy(data []byte) (PayloadRef, error) {
	ref, dst, err := sh.arena.alloc(len(data))
	if err != nil {
		return 0, err
	}
	staged := ref | PayloadRef(payloadStagedBit)
	// The job's lease goes on before the publish: the call's own lease
	// (just allocated) is what makes this increment safe.
	sh.arena.addLease(staged)
	if !sh.offload.stage(staged, data, dst) {
		sh.arena.release(staged)
		copy(dst, data)
		return ref, nil
	}
	if sh.closed.Load() {
		sh.offload.waitStaged(staged, &sh.arena)
		return staged, nil
	}
	sh.ensureOffloadWorker()
	if sh.offload.parked.Load() != 0 {
		sendToken(sh.offload.doorbell)
	}
	return staged, nil
}

// ensureOffloadWorker starts the shard's single offload worker if none
// is running. Same control-plane discipline as spawnWorker: qMu-
// guarded, refused after close (the close-side drain completes any
// jobs already staged).
//
//ppc:coldpath -- worker startup, once per shard lifetime in the steady state
func (sh *shard) ensureOffloadWorker() {
	l := sh.offload
	if l.running.Load() != 0 {
		return
	}
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if sh.closed.Load() || l.running.Load() != 0 {
		return
	}
	l.running.Add(1)
	sh.wg.Add(1)
	go sh.offloadLoop()
}

// offloadLoop is the shard's offload worker: claim staged jobs, land
// them, and park on the lane doorbell when idle. Unsupervised: any
// viewer may steal a staged copy, so a wedged copy holds up no one but
// the worker. On stop it drains the lane and exits.
func (sh *shard) offloadLoop() {
	l := sh.offload
	defer func() {
		l.running.Add(-1)
		sh.wg.Done()
	}()
	for {
		if l.drain(&sh.arena) {
			continue
		}
		select {
		case <-sh.stop:
			// Re-scan after observing stop: a job published just before
			// close may have landed in the table after this loop's last scan.
			l.drain(&sh.arena)
			return
		default:
		}
		l.parked.Add(1)
		if l.queueDepth() != 0 {
			// A job is mid-publish, or another copier is landing one;
			// yield to it instead of spinning on the table.
			l.parked.Add(-1)
			runtime.Gosched()
			continue
		}
		select {
		case <-l.doorbell:
		case <-sh.stop:
		}
		l.parked.Add(-1)
	}
}
