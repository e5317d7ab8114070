package rt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneSystem builds a single-shard, three-lane system with supervision
// disabled (tests wedge the only worker on purpose) and a small ring so
// overload is cheap to provoke.
func laneSystem(t testing.TB, queueCap int) *System {
	return newSystem(t, Options{
		Shards:               1,
		Lanes:                3,
		AsyncQueueCap:        queueCap,
		WorkerStallThreshold: -1,
	})
}

func TestLaneIndexAndString(t *testing.T) {
	cases := []struct {
		lane Lane
		idx  int
		name string
	}{
		{LaneDefault, 1, "default"},
		{LaneCritical, 0, "critical"},
		{LaneNormal, 1, "normal"},
		{LaneBestEffort, 2, "besteffort"},
		{Lane(99), 2, "invalid"},
	}
	for _, c := range cases {
		if got := c.lane.Index(); got != c.idx {
			t.Errorf("Lane(%d).Index() = %d, want %d", c.lane, got, c.idx)
		}
		if got := c.lane.String(); got != c.name {
			t.Errorf("Lane(%d).String() = %q, want %q", c.lane, got, c.name)
		}
	}
}

// TestLaneRoutingAndDepth pins the routing rule: a client's lane wins,
// LaneDefault falls back to the service's configured lane, and the
// per-lane depths (plus their sum, AsyncQueueDepth) are visible in
// ShardStats while the only worker is wedged.
func TestLaneRoutingAndDepth(t *testing.T) {
	sys := laneSystem(t, 16)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "lnull", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A second service whose configured class is best-effort: default-
	// lane clients calling it must land on the best-effort ring.
	besvc, err := sys.Bind(ServiceConfig{Name: "lbe", Lane: LaneBestEffort, Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	crit := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
	norm := sys.NewClientWith(ClientOptions{}) // LaneDefault -> service lane -> normal
	be := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})

	// Wedge the single worker with a normal-lane request.
	var wedge Args
	wedge[0] = 1
	if err := norm.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered

	var args Args
	for i := 0; i < 2; i++ {
		if err := crit.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := norm.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := be.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	// Default-lane client, best-effort service: routed by the service.
	if err := norm.AsyncCall(besvc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	// Explicit client lane overrides the service's class.
	if err := crit.AsyncCall(besvc.EP(), &args); err != nil {
		t.Fatal(err)
	}

	st := sys.Stats()[0]
	if st.LaneDepth[0] != 3 || st.LaneDepth[1] != 3 || st.LaneDepth[2] != 5 {
		t.Fatalf("LaneDepth = %v, want [3 3 5]", st.LaneDepth)
	}
	if st.AsyncQueueDepth != 11 {
		t.Fatalf("AsyncQueueDepth = %d, want 11 (sum of lanes)", st.AsyncQueueDepth)
	}
	if st.AsyncQueueCap != 3*16 {
		t.Fatalf("AsyncQueueCap = %d, want 48 (3 lanes x 16)", st.AsyncQueueCap)
	}

	close(block)
	waitCond(t, 2*time.Second, "lanes drained", func() bool {
		s := sys.Stats()[0]
		return s.AsyncQueueDepth == 0 && s.LaneDepth == [NumLaneClasses]int{}
	})
}

// TestLaneSheddingOrder pins the overload contract: a full best-effort
// ring sheds immediately with ErrShed (no bounded wait), a full normal
// ring keeps the single-lane bounded-wait-then-ErrBackpressure
// behavior, and the critical ring — drained first, filled last —
// accepts while the others reject. ShedByLane counts both forms.
func TestLaneSheddingOrder(t *testing.T) {
	sys := laneSystem(t, 4)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "lshed", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	crit := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
	norm := sys.NewClientWith(ClientOptions{})
	be := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})

	var wedge Args
	wedge[0] = 1
	if err := norm.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered

	var args Args
	// Fill the best-effort ring; the next submission must shed fast.
	for i := 0; i < 4; i++ {
		if err := be.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatalf("best-effort fill %d: %v", i, err)
		}
	}
	if err := be.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrShed) {
		t.Fatalf("overflowing best-effort lane = %v, want ErrShed", err)
	}
	// Fill the normal ring (3 slots left: the wedge came from it... no —
	// the wedge was already dequeued by the wedged worker, so 4 remain).
	for i := 0; i < 4; i++ {
		if err := norm.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatalf("normal fill %d: %v", i, err)
		}
	}
	if err := norm.AsyncCall(svc.EP(), &args); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflowing normal lane = %v, want ErrBackpressure", err)
	}
	// Critical still has a whole ring of headroom.
	for i := 0; i < 4; i++ {
		if err := crit.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatalf("critical fill %d: %v", i, err)
		}
	}

	st := sys.Stats()[0]
	if st.ShedByLane[2] != 1 {
		t.Fatalf("ShedByLane[besteffort] = %d, want 1", st.ShedByLane[2])
	}
	if st.ShedByLane[1] != 1 {
		t.Fatalf("ShedByLane[normal] = %d, want 1", st.ShedByLane[1])
	}
	if st.ShedByLane[0] != 0 {
		t.Fatalf("ShedByLane[critical] = %d, want 0", st.ShedByLane[0])
	}
	if st.BackpressureRejects != 1 {
		t.Fatalf("BackpressureRejects = %d, want 1 (fast sheds do not count)", st.BackpressureRejects)
	}

	close(block)
	// The running worker drains the rings, not Close.
	awaitAudit(t, sys)
}

// TestLaneWeightedDrainOrder pins the weighted dequeue: with one
// worker and both rings pre-loaded, every queued critical request is
// claimed (credit 16 covers the batch) before the first best-effort
// one — and the best-effort backlog still drains afterward, because
// credits reset once higher lanes run dry.
func TestLaneWeightedDrainOrder(t *testing.T) {
	sys := laneSystem(t, 32)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []uint64
	svc, err := sys.Bind(ServiceConfig{Name: "lorder", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
		mu.Lock()
		order = append(order, args[1])
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	crit := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
	be := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})

	var wedge Args
	wedge[0] = 1
	if err := crit.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered

	// Best-effort queued FIRST: FIFO across lanes would drain it first,
	// priority drains critical first.
	const n = 8
	var args Args
	for i := 0; i < n; i++ {
		args[1] = 100 + uint64(i)
		if err := be.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		args[1] = 200 + uint64(i)
		if err := crit.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	waitCond(t, 2*time.Second, "both lanes drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2*n
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if order[i] < 200 {
			t.Fatalf("completion %d = %d: best-effort ran before the critical backlog (%v)", i, order[i], order)
		}
	}
}

// TestLaneInversionBound pins the lower lanes' single claim: a critical
// request that arrives while the only worker runs a normal one waits
// behind that one request, not behind the rest of the normal backlog.
// Claiming the normal lane in batches runs the critical request last
// ([1 100 101 102 103 200]).
func TestLaneInversionBound(t *testing.T) {
	sys := laneSystem(t, 32)
	block, gate := make(chan struct{}), make(chan struct{})
	entered, running := make(chan struct{}, 1), make(chan struct{}, 1)
	var mu sync.Mutex
	var order []uint64
	svc, err := sys.Bind(ServiceConfig{Name: "linvert", Handler: func(ctx *Ctx, args *Args) {
		switch args[0] {
		case 1:
			entered <- struct{}{}
			<-block
		case 2:
			running <- struct{}{}
			<-gate
		}
		mu.Lock()
		order = append(order, args[1])
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	crit := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
	norm := sys.NewClientWith(ClientOptions{})

	if err := crit.AsyncCall(svc.EP(), &Args{1, 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Four normal requests queue behind the wedge; the first blocks on
	// the gate once it runs.
	for i := uint64(0); i < 4; i++ {
		args := Args{0, 100 + i}
		if i == 0 {
			args[0] = 2
		}
		if err := norm.AsyncCall(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	<-running
	if err := crit.AsyncCall(svc.EP(), &Args{0, 200}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitCond(t, 2*time.Second, "all six ran", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 6
	})
	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{1, 100, 200, 101, 102, 103}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completion order %v, want %v: the critical request waited behind more than the normal request in service", order, want)
	}
}

// TestLaneClaimSizes pins claimWeighted's claim sizes: a one-lane shard
// claims a full batch, and on a three-lane shard the top lane claims
// min(batch, credit) while each lower lane claims one request, spending
// one credit.
func TestLaneClaimSizes(t *testing.T) {
	published := func(lanes int) *shard {
		sh := &shard{}
		sh.configureLanes(Options{Lanes: lanes, AsyncQueueCap: 32})
		sh.provisionRings()
		for i := range sh.lanes {
			for k := 0; k < 20; k++ {
				if !sh.lanes[i].ring.push(nil, nil, &Args{uint64(i)}, 0, nil, 0) {
					t.Fatalf("lane %d: push %d refused", i, k)
				}
			}
		}
		return sh
	}
	var batch [asyncBatchSize]asyncReq
	credit := defaultLaneWeights
	if n := published(1).claimWeighted(&credit, batch[:]); n != asyncBatchSize {
		t.Fatalf("one-lane shard claimed %d of 20, want %d", n, asyncBatchSize)
	}
	sh := published(3)
	for _, step := range []struct {
		credit, after [NumLaneClasses]int32
		lane, n       int
	}{
		{credit: [...]int32{16, 4, 1}, after: [...]int32{0, 4, 1}, lane: 0, n: 16},
		{credit: [...]int32{3, 4, 1}, after: [...]int32{0, 4, 1}, lane: 0, n: 3},
		{credit: [...]int32{0, 4, 1}, after: [...]int32{0, 3, 1}, lane: 1, n: 1},
		{credit: [...]int32{0, 0, 1}, after: [...]int32{0, 0, 0}, lane: 2, n: 1},
	} {
		credit := step.credit
		n := sh.claimWeighted(&credit, batch[:])
		if n != step.n || batch[0].args[0] != uint64(step.lane) || credit != step.after {
			t.Errorf("credit %v: claimed %d from lane %d, credit after %v; want %d from lane %d, %v",
				step.credit, n, batch[0].args[0], credit, step.n, step.lane, step.after)
		}
	}
}

// TestLaneServiceRatio pins the service ratio under load: three lanes
// backlogged behind a wedge drain 16:4:1 per credit cycle — the top
// lane in one claim, the lower ones a request per scan — and FIFO
// within each lane. The critical wedge is the first cycle's first
// critical request.
func TestLaneServiceRatio(t *testing.T) {
	sys := laneSystem(t, 64)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []uint64
	svc, err := sys.Bind(ServiceConfig{Name: "lratio", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
		}
		mu.Lock()
		order = append(order, args[1])
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	clients := [NumLaneClasses]*Client{}
	for i, l := range []Lane{LaneCritical, LaneNormal, LaneBestEffort} {
		clients[i] = sys.NewClientWith(ClientOptions{Shard: 0, Lane: l})
	}
	// Request j of lane i is tagged i*1000 + j; the wedge is critical 0.
	if err := clients[0].AsyncCall(svc.EP(), &Args{1, 0}); err != nil {
		t.Fatal(err)
	}
	<-entered
	const cycles = 3
	quanta := defaultLaneWeights
	for i, c := range clients {
		for j := 0; j < cycles*int(quanta[i]); j++ {
			if i == 0 && j == 0 {
				continue // the wedge
			}
			if err := c.AsyncCall(svc.EP(), &Args{0, uint64(i*1000 + j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want []uint64
	for cycle := 0; cycle < cycles; cycle++ {
		for i, q := range quanta {
			for j := 0; j < int(q); j++ {
				want = append(want, uint64(i*1000+cycle*int(q)+j))
			}
		}
	}
	close(block)
	waitCond(t, 2*time.Second, "backlog drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == len(want)
	})
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("completion order\n%v\nwant\n%v", order, want)
	}
}

// TestLaneCountOverflow runs one overflow against every lane count: a
// best-effort client fills the ring its class maps to behind a wedged
// worker and submits once more. With one ring (Lanes 0 or 1) there is no
// cheaper class to shed, so the one-lane array must never answer
// ErrShed: the submission waits out the bounded submitWait and fails
// with ErrBackpressure, and the per-lane views stay zero (the shard's
// depth is AsyncQueueDepth). With two lanes best-effort clamps onto the
// lowest configured lane, which is the fast-shed lane; with three it has
// its own.
func TestLaneCountOverflow(t *testing.T) {
	const ringCap, wait = 4, 2 * time.Millisecond
	for _, tc := range []struct {
		lanes        int
		want         error
		depth        [NumLaneClasses]int
		shed         [NumLaneClasses]int64
		backpressure int64
	}{
		{lanes: 0, want: ErrBackpressure, backpressure: 1},
		{lanes: 1, want: ErrBackpressure, backpressure: 1},
		{lanes: 2, want: ErrShed, depth: [NumLaneClasses]int{1: ringCap}, shed: [NumLaneClasses]int64{1: 1}},
		{lanes: 3, want: ErrShed, depth: [NumLaneClasses]int{2: ringCap}, shed: [NumLaneClasses]int64{2: 1}},
	} {
		t.Run(fmt.Sprintf("Lanes=%d", tc.lanes), func(t *testing.T) {
			sys := newSystem(t, Options{
				Shards:               1,
				Lanes:                tc.lanes,
				AsyncQueueCap:        ringCap,
				MaxWorkers:           1,
				WorkerStallThreshold: -1,
			})
			sys.shards[0].submitWait = wait
			block := make(chan struct{})
			entered := make(chan struct{}, 1)
			svc, err := sys.Bind(ServiceConfig{Name: "overflow", Handler: func(ctx *Ctx, args *Args) {
				if args[0] == 1 {
					entered <- struct{}{}
					<-block
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			crit := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneCritical})
			be := sys.NewClientWith(ClientOptions{Shard: 0, Lane: LaneBestEffort})
			var wedge Args
			wedge[0] = 1
			if err := crit.AsyncCall(svc.EP(), &wedge); err != nil {
				t.Fatal(err)
			}
			<-entered
			var args Args
			for i := 0; i < ringCap; i++ {
				if err := be.AsyncCall(svc.EP(), &args); err != nil {
					t.Fatalf("fill %d: %v", i, err)
				}
			}
			start := time.Now()
			err = be.AsyncCall(svc.EP(), &args)
			if !errors.Is(err, tc.want) {
				t.Fatalf("overflow = %v, want %v", err, tc.want)
			}
			if took := time.Since(start); tc.want == ErrBackpressure && took < wait {
				t.Errorf("ErrBackpressure after %v, before the bounded wait of %v was over", took, wait)
			}
			st := sys.Stats()[0]
			if st.LaneDepth != tc.depth || st.ShedByLane != tc.shed || st.BackpressureRejects != tc.backpressure {
				t.Errorf("LaneDepth = %v, ShedByLane = %v, BackpressureRejects = %d; want %v, %v, %d",
					st.LaneDepth, st.ShedByLane, st.BackpressureRejects, tc.depth, tc.shed, tc.backpressure)
			}
			if wantCap := ringCap * max(tc.lanes, 1); st.AsyncQueueDepth != ringCap || st.AsyncQueueCap != wantCap {
				t.Errorf("AsyncQueueDepth = %d, AsyncQueueCap = %d; want %d, %d (sums over the lanes)",
					st.AsyncQueueDepth, st.AsyncQueueCap, ringCap, wantCap)
			}
			close(block)
			waitCond(t, 2*time.Second, "drained", func() bool { return sys.Stats()[0].AsyncQueueDepth == 0 })
		})
	}
}

// TestCooperativeYield: the opt-in per-batch worker yield services
// traffic on every lane correctly — same contract as the default
// loop, just with the P ceded between batches (the knob the open-loop
// harness measures; see EXPERIMENTS.md E17 for when to use it).
func TestCooperativeYield(t *testing.T) {
	sys := newSystem(t, Options{
		Shards:           1,
		Lanes:            3,
		CooperativeYield: true,
	})
	var handled atomic.Int64
	svc, err := sys.Bind(ServiceConfig{Name: "coop", Handler: func(ctx *Ctx, args *Args) {
		handled.Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Lane{LaneCritical, LaneNormal, LaneBestEffort} {
		c := sys.NewClientWith(ClientOptions{Shard: 0, Lane: l})
		var args Args
		for i := 0; i < 64; i++ {
			if err := c.AsyncCall(svc.EP(), &args); err != nil && !errors.Is(err, ErrBackpressure) && !errors.Is(err, ErrShed) {
				t.Fatal(err)
			}
		}
		c.Release()
	}
	waitCond(t, 2*time.Second, "drained", func() bool { return sys.Stats()[0].AsyncQueueDepth == 0 })
	if handled.Load() == 0 {
		t.Fatal("no request serviced under cooperative yield")
	}
}

// TestServiceLaneValidation: Bind rejects a lane outside the named
// classes; the valid classes bind fine.
func TestServiceLaneValidation(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	if _, err := sys.Bind(ServiceConfig{Name: "bad", Lane: Lane(7), Handler: func(ctx *Ctx, args *Args) {}}); err == nil {
		t.Fatal("Bind accepted an out-of-range lane")
	}
	for _, l := range []Lane{LaneDefault, LaneCritical, LaneNormal, LaneBestEffort} {
		if _, err := sys.Bind(ServiceConfig{Name: "ok" + l.String(), Lane: l, Handler: func(ctx *Ctx, args *Args) {}}); err != nil {
			t.Fatalf("Bind(Lane=%v) = %v", l, err)
		}
	}
}

// TestNewClientWith covers the constructor: explicit shard pinning,
// negative-shard round-robin staying in range, lane clamping, and the
// accessors.
func TestNewClientWith(t *testing.T) {
	sys := newSystem(t, Options{Shards: 2})
	c := sys.NewClientWith(ClientOptions{Shard: 1, Lane: LaneCritical, Tenant: 7})
	if c.Lane() != LaneCritical || c.Tenant() != 7 {
		t.Fatalf("accessors = (%v, %d), want (critical, 7)", c.Lane(), c.Tenant())
	}
	if c.shard != &sys.shards[1] {
		t.Fatal("explicit shard not honored")
	}
	for i := 0; i < 8; i++ {
		rr := sys.NewClientWith(ClientOptions{Shard: -1})
		if rr.shard != &sys.shards[0] && rr.shard != &sys.shards[1] {
			t.Fatal("round-robin client landed off the shard array")
		}
	}
	if cl := sys.NewClientWith(ClientOptions{Shard: 0, Lane: Lane(50)}); cl.Lane() != LaneBestEffort {
		t.Fatalf("out-of-range lane = %v, want clamp to besteffort", cl.Lane())
	}
}
