// Package budget is the rmwbudget analyzer's fixture: every `want`
// comment is a diagnostic the analyzer must produce, and every root
// without one is a path it must accept as exactly on budget.
package budget

import "sync/atomic"

type counters struct {
	admitted  atomic.Int64
	completed atomic.Int64
	state     atomic.Int32
	slots     [4]atomic.Uint64
	head      atomic.Pointer[counters]
	raw       int64
}

var c counters

// Call is on budget: one admission, one completion; loads are free, the
// failing exit is behind a cold boundary, and the opt-in leg carries its
// own budget.
//
//ppc:rmwbudget(2)
func Call(tenant bool) bool {
	if tenant {
		admitTenant()
	}
	c.admitted.Add(1)
	if c.state.Load() != 0 {
		backOut()
		return false
	}
	complete()
	return true
}

func complete() { c.completed.Add(1) }

// backOut is off the warm path; its writes belong to no budget.
//
//ppc:coldpath -- a kill intervened; the call is already failing
func backOut() {
	c.admitted.Add(-1)
	c.state.Store(2)
}

// admitTenant is an opt-in leg, accounted here and not in its callers.
//
//ppc:rmwbudget(1)
func admitTenant() { c.raw = atomic.AddInt64(&c.raw, -1) }

// Over is the seeded violation: a third locked instruction crept onto a
// two-instruction path, one call down.
//
//ppc:rmwbudget(2) // want "Over reaches 3 atomic write sites, budget 2"
func Over() {
	c.admitted.Add(1) // want "Add counts against Over's budget of 2 .path: Over."
	publish(7)
	c.completed.Add(1) // want "Add counts against Over's budget of 2 .path: Over."
}

func publish(v uint64) {
	for i := range c.slots {
		if c.slots[i].Load() == 0 {
			c.slots[i].Store(v) // want "Store counts against Over's budget of 2 .path: Over -> publish."
			return
		}
	}
}

// Claim exercises every write family on non-field receivers: an indexed
// slot, a pointer to a word, a generic pointer.
//
//ppc:rmwbudget(4)
func Claim(slot *atomic.Uint64, v uint64) bool {
	if c.slots[0].Swap(0) != 0 {
		return false
	}
	c.head.Store(&c)
	slot.Or(1)
	return slot.CompareAndSwap(v, 0)
}

// Stale declares more than it spends.
//
//ppc:rmwbudget(3) // want "Stale reaches 1 atomic write sites, budget 3: lower the annotation"
func Stale() { c.admitted.Add(1) }

// Append stages without synchronizing at all.
//
//ppc:rmwbudget(0)
func Append(buf []uint64, v uint64) []uint64 {
	if c.state.Load() != 0 || len(buf) == cap(buf) {
		return buf
	}
	buf = buf[:len(buf)+1]
	buf[len(buf)-1] = v
	return buf
}
