package rt

import "sync/atomic"

// Priority lanes — criticality-aware scheduling for the async path.
//
// One ring per shard means one latency class: a burst of best-effort
// traffic queues ahead of a latency-critical request and the shard
// sheds whoever arrives last, not whoever matters least. A shard's
// async queue is therefore an array of one to three Vyukov rings, one
// per criticality class, drained by the same worker pool through a
// weighted dequeue, the top lane in batches and lower lanes one request
// per scan — the scheduling analogue of criticality-aware arbitration
// in shared hardware: the worker goes to the highest class with work,
// and the weight vector bounds how long a lower class can be deferred,
// so nothing starves. One class is the degenerate case of the same
// arbiter, not a second datapath: a shard built without Options.Lanes
// has a one-element array, every request routes to it, and submit,
// drain, park and stats run the code below over a length of one.
//
// Under overload the shedding order follows criticality downward
// (shard.submit): with two or more lanes, the lowest one sheds a
// submission that finds its ring full at once (ErrShed), spending no
// bounded wait on the cheapest traffic; every other ring, a one-lane
// shard's included, waits a bounded time, then ErrBackpressure — and
// drains first, so best-effort sheds before normal, normal before
// critical. Lanes decide only which ring a request enters and in what
// order requests leave; everything after dequeue is one path.
//
// Every lane shares the shard's doorbell/parked pair, so a critical
// enqueue wakes a worker that parked after draining best-effort traffic:
// the worker's Dekker handshake re-checks EVERY ring before blocking
// (queuesEmpty), which is what makes one doorbell correct.

// Lane names a request's criticality class. The zero value
// (LaneDefault) defers to the service's configured lane
// (ServiceConfig.Lane), which itself defaults to LaneNormal — so a
// system that never mentions lanes runs everything at LaneNormal on
// its one ring.
type Lane uint8

const (
	// LaneDefault defers to the service's configured class.
	LaneDefault Lane = iota
	// LaneCritical is the latency-critical class: drained first,
	// shed last.
	LaneCritical
	// LaneNormal is the standard class (the default for services that
	// do not configure a lane).
	LaneNormal
	// LaneBestEffort is the scavenger class: drained with the smallest
	// quantum, and shed immediately (ErrShed) when its ring fills.
	LaneBestEffort
)

// NumLaneClasses is the number of real criticality classes
// (LaneDefault resolves to one of them). Per-lane statistics arrays
// (ShardStats.LaneDepth, ShedByLane) are indexed by Lane.Index.
const NumLaneClasses = 3

// Index maps a resolved lane to its priority index: 0 critical,
// 1 normal, 2 best-effort. LaneDefault maps to LaneNormal's index;
// out-of-range values clamp to best-effort.
func (l Lane) Index() int {
	switch l {
	case LaneCritical:
		return 0
	case LaneDefault, LaneNormal:
		return 1
	default:
		return 2
	}
}

// String names the lane for diagnostics.
func (l Lane) String() string {
	switch l {
	case LaneDefault:
		return "default"
	case LaneCritical:
		return "critical"
	case LaneNormal:
		return "normal"
	case LaneBestEffort:
		return "besteffort"
	default:
		return "invalid"
	}
}

// defaultLaneWeights is the drain quantum vector by priority index:
// lane i is served up to weight[i] requests per cycle — the top lane
// in claims of up to 16, a lower lane one request per claim — and when
// every credited lane is dry the credits reset, so the critical:normal:
// besteffort service ratio under full load is 16:4:1 and no lane starves.
var defaultLaneWeights = [NumLaneClasses]int32{16, 4, 1}

// laneRing is one criticality class's ring plus its shed counter. The
// embedded asyncRing is internally padded (cursor isolation); the shed
// counter gets its own line because it is written by overloading
// submitters while the ring's cursors are hammered by everyone —
// tiling is machine-checked since shard.lanes is a []laneRing.
//
//ppc:padded
type laneRing struct {
	ring asyncRing

	// shed counts submissions rejected at this lane's full ring —
	// fast sheds (ErrShed) and bounded-wait rejections
	// (ErrBackpressure) alike.
	//
	//ppc:atomic
	//ppc:hotline
	shed atomic.Int64
	_    [56]byte
}

// configureLanes builds the shard's lane array from Options (called
// from NewSystemOptions, once per shard, before any traffic): between
// one and NumLaneClasses rings of AsyncQueueCap slots each, sized here
// and allocated by the shard's first submission (provisionRings).
//
//ppc:coldpath -- construction-time configuration
func (sh *shard) configureLanes(o Options) {
	cap := defaultAsyncQueueCap
	if o.AsyncQueueCap > 0 {
		cap = min(o.AsyncQueueCap, maxAsyncQueueCap)
	}
	sh.lanes = make([]laneRing, min(max(o.Lanes, 1), NumLaneClasses))
	for i := range sh.lanes {
		sh.lanes[i].ring.mask = ringMask(cap)
	}
}

// provisionRings allocates every lane's slots, zeroed — each ring on lap
// 0 — the first time the shard is submitted to, so a sync-only shard
// never holds them. The ringsReady store orders the slots before the
// push that follows it and every read behind that push's ticket.
//
//ppc:coldpath -- once per shard, on its first submission
func (sh *shard) provisionRings() {
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if !sh.ringsReady.Load() {
		for i := range sh.lanes {
			sh.lanes[i].ring.slots = make([]ringSlot, sh.lanes[i].ring.mask+1)
		}
		sh.ringsReady.Store(true)
	}
}

// laneFor picks the ring a request enters: the caller's class when it
// set one, else the service's, clamped to the configured lane count
// (a 2-lane system maps best-effort onto its lowest lane, a one-lane
// shard maps everything onto its only one).
//
//ppc:hotpath
func (sh *shard) laneFor(clientLane Lane, svc *Service) *laneRing {
	l := clientLane
	if l == LaneDefault {
		l = svc.lane
	}
	idx := l.Index()
	if idx >= len(sh.lanes) {
		idx = len(sh.lanes) - 1
	}
	return &sh.lanes[idx]
}

// queuesEmpty reports whether every async ring is empty — the lane-
// aware form of ring.empty, used by the worker's park handshake and the
// supervision safety net.
//
//ppc:hotpath
func (sh *shard) queuesEmpty() bool {
	for i := range sh.lanes {
		if !sh.lanes[i].ring.empty() {
			return false
		}
	}
	return true
}

// queuesStalled reports whether any ring's dequeue head is a
// claimed-but-unpublished slot (see asyncRing.stalled).
//
//ppc:coldpath -- supervision probe, off the call path
func (sh *shard) queuesStalled() bool {
	for i := range sh.lanes {
		if sh.lanes[i].ring.stalled() {
			return true
		}
	}
	return false
}

// claimWeighted is the weighted dequeue: scan lanes in priority order
// and claim from the first credited lane with published work, up to
// min(batch, credit) from the top lane and one from a lower one — so a
// critical arrival waits behind at most the lower request in service.
// When a full scan finds nothing claimable, refill the credits and
// scan once more (a lane out of credit is claimable again only after
// the scan proved the lower lanes dry or out of credit too: the second
// pass makes the weights a ratio under load, not a hard cap). Returns
// 0 only when every lane is empty or mid-publish.
//
//ppc:hotpath
func (sh *shard) claimWeighted(credit *[NumLaneClasses]int32, dst []asyncReq) int {
	for pass := 0; pass < 2; pass++ {
		for i := range sh.lanes {
			c := credit[i]
			if c <= 0 {
				continue
			}
			want := min(len(dst), int(c))
			if i > 0 {
				want = 1
			}
			if n := sh.lanes[i].ring.popBatch(dst[:want]); n > 0 {
				credit[i] = c - int32(n)
				return n
			}
		}
		*credit = defaultLaneWeights
	}
	return 0
}
