package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
)

// Span names. Spans are recorded from the benchmark's side of rt's
// public API: around a call into a layer, or inside a handler.
const (
	spOp uint8 = iota // a whole operation that is more than one call (payload_zc)
	spCall
	spCallDeadline
	spAsyncCall
	spAdd
	spFlush
	spAlloc
	spAttachBytes
	spHandler
	spView
	spBlank // calibration: an empty span with one empty child, spEmpty
	spEmpty
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "Call", "CallDeadline", "AsyncCall", "Batch.Add", "Batch.Flush",
	"AllocPayload", "AttachBytes", "handler", "Ctx.Payload", "blank", "empty",
}

// span is one traced interval. op is the id of the operation's root
// span, shared by every span of one request; parent is the span that
// caused this one (-1 for a root).
type span struct {
	start, end int64
	op, parent int32
	name, lane uint8
}

// tracer is a preallocated in-memory span buffer, split into lanes so
// that goroutines on different processors do not reserve slots through
// one shared counter: with a single counter the reservation itself was
// a cache miss, charged to whatever span was open around it. A
// goroutine reserves a slot in its lane with one atomic add and then
// owns it; a full lane drops further spans and counts them. A span's id
// is its index in spans, lanes included, so ids stay valid across
// lanes. The buffer is read only after every writer has been joined.
type tracer struct {
	spans   []span
	laneCap int
	lanes   [traceLanes]struct {
		next atomic.Int64
		_    [7]uint64
	}
	dropped atomic.Int64
}

const (
	traceCap   = 1 << 20
	traceLanes = 4
)

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity), laneCap: capacity / traceLanes}
}

func (t *tracer) reset() {
	for l := range t.lanes {
		t.lanes[l].next.Store(0)
	}
	t.dropped.Store(0)
}

// laneOf is the lane a span was recorded in. A handler that runs on its
// caller's goroutine records in its parent's lane.
func (t *tracer) laneOf(id int32) int { return int(id) / t.laneCap }

// begin opens a span in lane and returns its id, or -1 when the lane is
// full. The clock is read last so the slot bookkeeping is charged to
// the parent, not to the span.
func (t *tracer) begin(lane int, name uint8, parent, op int32, aux uint8) int32 {
	i := t.lanes[lane].next.Add(1) - 1
	if i >= int64(t.laneCap) {
		t.dropped.Add(1)
		return -1
	}
	id := int32(lane*t.laneCap) + int32(i)
	s := &t.spans[id]
	if op < 0 {
		op = id
	}
	s.op, s.parent, s.name, s.lane = op, parent, name, aux
	s.end = 0
	s.start = now()
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = now()
	}
}

// blank records an empty span with one empty child. Load loops call it
// right after a traced operation, so the tracer's own cost is measured
// in the state the traced operation met it in (caches and predictors
// just taken over by 63 untraced calls), not in a tight loop of its own.
func (t *tracer) blank(lane int) {
	b := t.begin(lane, spBlank, -1, -1, 0)
	t.end(t.begin(lane, spEmpty, b, b, 0))
	t.end(b)
}

// setAux stores a small per-span count in the lane byte (Batch.Flush:
// how many requests it accepted).
func (t *tracer) setAux(id int32, v int) {
	if id >= 0 {
		t.spans[id].lane = uint8(v)
	}
}

// link packs (op, parent) into the request word that carries a trace
// context to the handler; 0 means "not traced".
func link(op, parent int32) uint64 {
	if parent < 0 {
		return 0
	}
	return uint64(uint32(op+1))<<32 | uint64(uint32(parent+1))
}

func unlink(w uint64) (op, parent int32) {
	return int32(uint32(w>>32)) - 1, int32(uint32(w)) - 1
}

// recorded returns the spans of every lane as one slice, with ids
// (op, parent) renumbered to index it.
func (t *tracer) recorded() []span {
	var used, base [traceLanes]int
	total := 0
	for l := range t.lanes {
		used[l] = int(min(t.lanes[l].next.Load(), int64(t.laneCap)))
		base[l] = total
		total += used[l]
	}
	renumber := func(id int32) int32 {
		if id < 0 {
			return id
		}
		l := t.laneOf(id)
		return int32(base[l] + int(id) - l*t.laneCap)
	}
	out := make([]span, 0, total)
	for l := range t.lanes {
		for _, s := range t.spans[l*t.laneCap : l*t.laneCap+used[l]] {
			s.op, s.parent = renumber(s.op), renumber(s.parent)
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each recorded and finished span, its duration
// minus the part of its interval that its child spans cover (children
// clipped to the parent, overlapping children counted once), and the
// number of children that ran inside it. Unfinished spans get -1.
func selfTimes(spans []span) (self []int64, kids []int32) {
	self = make([]int64, len(spans))
	kids = make([]int32, len(spans))
	type iv struct {
		parent     int32
		start, end int64
	}
	var ivs []iv
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			self[i] = -1
			continue
		}
		self[i] = s.end - s.start
		if s.parent < 0 || int(s.parent) >= len(spans) {
			continue
		}
		p := &spans[s.parent]
		if lo, hi := max(s.start, p.start), min(s.end, p.end); hi > lo {
			kids[s.parent]++
			ivs = append(ivs, iv{s.parent, lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		if a.parent != b.parent {
			return int(a.parent) - int(b.parent)
		}
		return int(a.start - b.start)
	})
	for i := 0; i < len(ivs); {
		p, covered, hi := ivs[i].parent, int64(0), int64(0)
		for ; i < len(ivs) && ivs[i].parent == p; i++ {
			lo := max(ivs[i].start, hi)
			if ivs[i].end > lo {
				covered += ivs[i].end - lo
				hi = ivs[i].end
			}
		}
		if self[p] >= 0 {
			self[p] -= covered
		}
	}
	return self, kids
}

// writeTrace writes up to limit spans as JSON lines.
func writeTrace(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range spans[:min(limit, len(spans))] {
		s := &spans[i]
		fmt.Fprintf(w, `{"id":%d,"op":%d,"parent":%d,"name":%q,"lane":%d,"start":%d,"end":%d}`+"\n",
			i, s.op, s.parent, spanNames[s.name], s.lane, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
