package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the paged service table: each shard's replica is
// MaxEntryPoints/epPageLen page pointers, and a page is made when the
// first entry point in it is bound. That every replica follows Exchange
// and Kill on the first page is TestExchangePublishesToEveryReplica and
// TestKillRetractsEveryReplica.

// pagesOf counts a shard's allocated table pages.
func pagesOf(sh *shard) int {
	n := 0
	for p := range sh.tab {
		if sh.tab[p].Load() != nil {
			n++
		}
	}
	return n
}

// TestTablePagesEveryShard: entry points on the first page (2, the first
// dynamic one), a middle page (40) and the last (1023) resolve on every
// shard, each shard holding those three pages and no other; Exchange and
// Kill of the last page's entry point reach every shard.
func TestTablePagesEveryShard(t *testing.T) {
	sys := newSystem(t, Options{Shards: 3})
	eps := []EntryPointID{0, 40, MaxEntryPoints - 1} // 0: the next dynamic one
	for i, ep := range eps {
		v := uint64(i + 1)
		svc, err := sys.Bind(ServiceConfig{Name: "page", EP: ep, Handler: func(ctx *Ctx, args *Args) { args[0] = v }})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = svc.EP()
	}
	if eps[0] != firstDynamicEP {
		t.Fatalf("dynamic entry point %d, want %d", eps[0], firstDynamicEP)
	}
	call := func(shard int, ep EntryPointID) (uint64, error) {
		var args Args
		err := sys.NewClientWith(ClientOptions{Shard: shard}).Call(ep, &args)
		return args[0], err
	}
	for sh := 0; sh < sys.NumShards(); sh++ {
		if n := pagesOf(&sys.shards[sh]); n != 3 {
			t.Errorf("shard %d holds %d table pages, want 3", sh, n)
		}
		for i, ep := range eps {
			if got, err := call(sh, ep); err != nil || got != uint64(i+1) {
				t.Errorf("shard %d entry point %d: %d, %v; want %d", sh, ep, got, err, i+1)
			}
		}
	}
	last := eps[2]
	if err := sys.Exchange(last, func(ctx *Ctx, args *Args) { args[0] = 99 }); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < sys.NumShards(); sh++ {
		if got, err := call(sh, last); err != nil || got != 99 {
			t.Errorf("shard %d after Exchange: %d, %v; want 99", sh, got, err)
		}
	}
	if err := sys.Kill(last, false); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < sys.NumShards(); sh++ {
		if _, err := call(sh, last); !errors.Is(err, ErrBadEntryPoint) {
			t.Errorf("shard %d after Kill: %v, want ErrBadEntryPoint", sh, err)
		}
		if got, err := call(sh, eps[1]); err != nil || got != 2 {
			t.Errorf("shard %d: Kill of %d disturbed %d: %d, %v", sh, last, eps[1], got, err)
		}
	}
	if sys.Service(last) != nil {
		t.Error("Service reports a killed entry point")
	}
}

// TestTableServiceLookup: Service reads the control plane's view (shard
// 0's replica) for a bound entry point, an unbound one on an allocated
// page, one on a page never made, and one past MaxEntryPoints; a call
// to any unbound one is ErrBadEntryPoint on every shard.
func TestTableServiceLookup(t *testing.T) {
	sys := newSystem(t, Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{Name: "bound", EP: 5, Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Service(5); got != svc {
		t.Fatalf("Service(5) = %v, want the bound service", got)
	}
	for _, ep := range []EntryPointID{6, 500, MaxEntryPoints, 1<<16 - 1} {
		if got := sys.Service(ep); got != nil {
			t.Errorf("Service(%d) = %v, want nil", ep, got)
		}
		for sh := 0; sh < sys.NumShards(); sh++ {
			if err := sys.NewClientWith(ClientOptions{Shard: sh}).Call(ep, &Args{}); !errors.Is(err, ErrBadEntryPoint) {
				t.Errorf("shard %d call to %d: %v, want ErrBadEntryPoint", sh, ep, err)
			}
		}
	}
	if _, err := sys.Bind(ServiceConfig{Name: "range", EP: MaxEntryPoints, Handler: func(ctx *Ctx, args *Args) {}}); err == nil {
		t.Error("Bind accepted an entry point past MaxEntryPoints")
	}
	if n := pagesOf(&sys.shards[0]); n != 1 {
		t.Errorf("shard 0 holds %d table pages after lookups of unbound entry points, want 1", n)
	}
}

// TestTableHealthOnLastPage: Stats' health fold walks every allocated
// page, the last one included, and charges a gated service's trips to
// the shard they happened on.
func TestTableHealthOnLastPage(t *testing.T) {
	sys := newSystem(t, Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{
		Name:    "flappy",
		EP:      MaxEntryPoints - 1,
		Handler: func(ctx *Ctx, args *Args) { panic("boom") },
		Health:  &HealthConfig{MaxConsecutiveFaults: 2, ProbeAfter: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: 1})
	for i := 0; i < 2; i++ {
		if err := c.Call(svc.EP(), &Args{}); !errors.Is(err, ErrServerFault) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := c.Call(svc.EP(), &Args{}); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("call through the open gate: %v", err)
	}
	st := sys.Stats()
	if st[1].HealthTrips != 1 || st[1].ShedCalls != 1 || st[0].HealthTrips != 0 {
		t.Fatalf("HealthTrips %d/%d, ShedCalls %d on shard 1; want 0/1 and 1", st[0].HealthTrips, st[1].HealthTrips, st[1].ShedCalls)
	}
}

// TestTableBindMakesPageRacingCalls: Binds that make pages, one per
// page, race held calls on every shard — to a service bound before, and
// to each entry point as it is bound. A call sees a bound entry point or
// an unbound one, never anything else.
func TestTableBindMakesPageRacingCalls(t *testing.T) {
	sys := newSystem(t, Options{Shards: 2})
	steady, err := sys.Bind(ServiceConfig{Name: "steady", Handler: func(ctx *Ctx, args *Args) { args[0] = 1 }})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var calls atomic.Int64
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for sh := 0; sh < sys.NumShards(); sh++ {
		c := sys.NewClientWith(ClientOptions{Shard: sh})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				var args Args
				if err := c.Call(steady.EP(), &args); err != nil || args[0] != 1 {
					t.Errorf("steady call: %d, %v", args[0], err)
					return
				}
				// The entry point the binder is at, or about to reach.
				ep := EntryPointID(epPageLen * (1 + i%(MaxEntryPoints/epPageLen-1)))
				args[0] = 0
				if err := c.Call(ep, &args); (err != nil && !errors.Is(err, ErrBadEntryPoint)) || (err == nil && args[0] != uint64(ep)) {
					t.Errorf("call to %d while pages are made: %d, %v", ep, args[0], err)
					return
				}
				calls.Add(1)
			}
		}()
	}
	for p := 1; p < MaxEntryPoints/epPageLen; p++ {
		ep := EntryPointID(p * epPageLen)
		if _, err := sys.Bind(ServiceConfig{Name: "paged", EP: ep, Handler: func(ctx *Ctx, args *Args) { args[0] = uint64(ep) }}); err != nil {
			t.Fatal(err)
		}
		for calls.Load() < int64(p) && !t.Failed() {
			time.Sleep(10 * time.Microsecond) // let calls land between Binds
		}
	}
	for sh := range sys.shards {
		if n := pagesOf(&sys.shards[sh]); n != MaxEntryPoints/epPageLen {
			t.Errorf("shard %d holds %d pages, want every one", sh, n)
		}
	}
}
