package rt

import (
	"runtime"
	"sync"
	"testing"
	"weak"
)

// The descriptor pool's head carries a tag for the reason the executor
// pool's does (TestDeadlinePoolStalePopFails): A reads head = a and a's
// link b; a and b are popped and a alone pushed back. A head that named a
// again without the tag would take A's CAS and put b — in use — on the
// free list, and the next pop would hand one descriptor to two callers.
func TestDescriptorPoolStalePopFails(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	a, b := sh.newCD(nil), sh.newCD(nil)
	sh.pushCD(b)
	sh.pushCD(a)
	stale := sh.free.head.Load() // popper A: head = a, whose link is b
	if sh.popCD() != a || sh.popCD() != b {
		t.Fatal("pops out of LIFO order")
	}
	sh.pushCD(a) // b stays in use
	if uint32(sh.free.head.Load()) != uint32(stale) {
		t.Fatal("head does not name a's slot again: the test no longer builds the ABA shape")
	}
	if sh.free.head.CompareAndSwap(stale, stale>>32<<32|uint64(b.slot+1)) {
		t.Error("a pop that slept through its top's pop and push took its CAS: b, in use, is on the free list")
	}
	if got := sh.popCD(); got != a {
		t.Errorf("the next pop returned %p, want a (%p); b is %p and still in use", got, a, b)
	}
	sh.pushCD(a) // both back in the pool: the audit finds every descriptor made
	sh.pushCD(b)
}

// A death's compensating descriptor takes the condemned one's slot: the
// table keeps nothing condemned alive, and deaths do not grow it.
func TestDescriptorPoolCondemnedSlotReused(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "nop", Handler: func(*Ctx, *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	var args Args
	cycle := func() weak.Pointer[callDesc] {
		c := sys.NewClientWith(ClientOptions{})
		if err := c.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		held := weak.Make(c.held)
		c.Abandon()
		c.Release() // the client's own reference; the reap already took the record's
		return held
	}
	condemned := cycle()
	runtime.GC()
	if condemned.Value() != nil {
		t.Fatal("a condemned descriptor is still reachable after a collection: the slot table keeps it")
	}
	slots := sh.free.slots.Load()
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if got := sh.free.slots.Load(); got != slots {
		t.Errorf("1 000 hold→Abandon cycles took the shard's descriptor slots %d → %d; a death must not grow the table", slots, got)
	}
	sys.Close()
	if st := sys.Stats()[0]; st.CDsCreated != int64(st.PooledCDs)+st.ScavengedCDs || st.ScavengedCDs != 1001 {
		t.Errorf("after Close: CDsCreated %d, PooledCDs %d, ScavengedCDs %d; want created = pooled + scavenged, 1 001 scavenged",
			st.CDsCreated, st.PooledCDs, st.ScavengedCDs)
	}
}

// Goroutines pop, use and push descriptors on one shard, holding one or two
// at a time so that pushes interleave with stale pops: no descriptor may
// ever be in two goroutines' hands.
func TestDescriptorPoolExclusive(t *testing.T) {
	leakCheck(t)
	sys := newSystem(t, Options{Shards: 1})
	sh := &sys.shards[0]
	const goroutines, rounds = 6, 3000
	var inUse sync.Map
	var twice sync.Once
	var wg sync.WaitGroup
	take := func() *callDesc {
		cd := sh.popCD()
		if _, dup := inUse.LoadOrStore(cd, true); dup {
			twice.Do(func() { t.Errorf("descriptor %p (slot %d) popped while in use", cd, cd.slot) })
		}
		return cd
	}
	give := func(cd *callDesc) {
		inUse.Delete(cd)
		sh.pushCD(cd)
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a := take()
				if (i+g)%2 == 0 {
					b := take()
					runtime.Gosched()
					give(a)
					give(b)
					continue
				}
				give(a)
			}
		}(g)
	}
	wg.Wait()
	if n, created := sh.poolSize(), sh.cdsCreated.Load(); int64(n) != created || int64(sh.free.slots.Load()) != created {
		t.Errorf("after the storm: %d pooled, %d slots, %d created; want every descriptor back, one slot each", n, sh.free.slots.Load(), created)
	}
}
