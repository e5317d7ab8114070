// Quickstart: the rt package — PPC-style service calls between Go
// goroutines with shared-nothing per-shard fast paths.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hurricane/rt"
)

// Opcodes for the key-value service.
const (
	opPut uint32 = 1
	opGet uint32 = 2
)

func main() {
	sys := rt.NewSystemOptions(rt.Options{})

	// A tiny sharded key-value service: each shard keeps its own map
	// (shard-local state set up by the init handler, the paper's
	// worker-initialization pattern), so the service itself needs no
	// locks for shard-local keys.
	states := make([]*kvState, sys.NumShards())

	svc, err := sys.Bind(rt.ServiceConfig{
		Name: "kv",
		InitHandler: func(ctx *rt.Ctx, args *rt.Args) {
			states[ctx.Shard()] = &kvState{m: make(map[uint64]uint64)}
			kvHandle(states, ctx, args)
		},
		Handler: func(ctx *rt.Ctx, args *rt.Args) {
			kvHandle(states, ctx, args)
		},
	})
	if err != nil {
		panic(err)
	}
	if err := sys.Register("kv", svc.EP()); err != nil {
		panic(err)
	}

	// Clients discover the service by name, then call it directly —
	// the caller's goroutine crosses into the handler; no channels, no
	// locks on the path.
	ep, err := sys.Lookup("kv")
	if err != nil {
		panic(err)
	}

	var wg sync.WaitGroup
	goroutines := runtime.GOMAXPROCS(0)
	const callsEach = 100_000
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sys.NewClientWith(rt.ClientOptions{Shard: -1}) // one client per goroutine, round-robin over the shards
			var args rt.Args
			for i := 0; i < callsEach; i++ {
				args[0] = uint64(i % 512) // key
				args[1] = uint64(i)       // value
				args.SetOp(opPut, 0)
				if err := c.Call(ep, &args); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := int64(goroutines) * callsEach
	fmt.Printf("%d goroutines x %d calls: %v (%.0f ns/call, %d total)\n",
		goroutines, callsEach, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(total), svc.Calls())

	// Read something back.
	c := sys.NewClientWith(rt.ClientOptions{Shard: -1})
	var args rt.Args
	args[0] = 42
	args.SetOp(opGet, 0)
	if err := c.Call(ep, &args); err != nil {
		panic(err)
	}
	fmt.Printf("kv[42] on shard %d-ish = %d\n", c.Shard(), args[1])
}

// kvHandle services one request against the shard-local map.
func kvHandle(states []*kvState, ctx *rt.Ctx, args *rt.Args) {
	st := states[ctx.Shard()]
	switch rt.Op(args[rt.OpFlagsWord]) {
	case opPut:
		st.m[args[0]] = args[1]
		args.SetRC(0)
	case opGet:
		args[1] = st.m[args[0]]
		args.SetRC(0)
	default:
		args.SetRC(1)
	}
}

type kvState struct{ m map[uint64]uint64 }
