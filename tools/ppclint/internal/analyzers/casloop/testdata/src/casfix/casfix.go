// Package casfix seeds CAS retry-loop violations for the casloop
// analyzer's golden test.
package casfix

import "sync/atomic"

type counter struct {
	n atomic.Uint64
}

// refill is a cold helper for the in-loop call checks.
//
//ppc:coldpath -- fixture: slow-path refill, off the retry path
func refill(c *counter) {}

// staleWitness seeds violation 1: the witness is read once, outside
// the loop, and never refreshed — a failing CAS retries forever
// against a stale expectation.
func staleWitness(c *counter) {
	old := c.n.Load()
	for {
		if c.n.CompareAndSwap(old, old+1) { // want "witness old is not re-read inside the retry loop"
			return
		}
	}
}

// freshWitness is the legal shape: re-read every iteration.
func freshWitness(c *counter) {
	for {
		old := c.n.Load()
		if c.n.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// coldInLoop seeds violation 2: a //ppc:coldpath call on the retry
// path itself.
func coldInLoop(c *counter) {
	for {
		old := c.n.Load()
		refill(c) // want "call to //ppc:coldpath refill inside a CAS retry loop"
		if c.n.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// blockInLoop seeds violation 3: a blocking channel receive on the
// retry path.
func blockInLoop(c *counter, ch chan int) {
	for {
		old := c.n.Load()
		<-ch // want "channel receive inside a CAS retry loop"
		if c.n.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// coldOnExit is legal: the cold call sits in a block that ends by
// leaving the loop, so it runs at most once.
func coldOnExit(c *counter) {
	for {
		old := c.n.Load()
		if c.n.CompareAndSwap(old, old+1) {
			refill(c)
			return
		}
	}
}

type node struct {
	next atomic.Pointer[node]
	val  int
}

type stack struct {
	head atomic.Pointer[node]
}

// pop seeds violation 4: the Treiber-pop shape — reading next
// *through* the pointer witness before CASing it — without declaring
// what defeats ABA.
func (s *stack) pop() *node {
	for {
		top := s.head.Load()
		if top == nil {
			return nil
		}
		next := top.next.Load()
		if s.head.CompareAndSwap(top, next) { // want "ABA-sensitive"
			return top
		}
	}
}

// popAnnotated is the same shape made legal by declaring the
// protection.
//
//ppc:aba(epoch) -- fixture: a node is reclaimed only after an epoch no popper holds it in
func (s *stack) popAnnotated() *node {
	for {
		top := s.head.Load()
		if top == nil {
			return nil
		}
		next := top.next.Load()
		if s.head.CompareAndSwap(top, next) {
			return top
		}
	}
}

// push is ABA-safe: the witness is only used as a value, never read
// through.
func (s *stack) push(n *node) {
	for {
		top := s.head.Load()
		n.next.Store(top)
		if s.head.CompareAndSwap(top, n) {
			return
		}
	}
}

type flagbox struct {
	b atomic.Bool
}

// literalWitness is legal: a constant witness is a state transition,
// not a read-check-update.
func literalWitness(c *flagbox) {
	for i := 0; i < 3; i++ {
		if c.b.CompareAndSwap(false, true) {
			return
		}
	}
}

// decoration seeds violation 5: //ppc:aba on a function with no CAS
// retry loop is drift.
//
//ppc:aba(gen) -- fixture: annotation with nothing to protect // want "no CAS retry loop"
func decoration(c *counter) {
	c.n.Add(1)
}

var (
	_ = staleWitness
	_ = freshWitness
	_ = coldInLoop
	_ = blockInLoop
	_ = coldOnExit
	_ = literalWitness
	_ = decoration
)
