package rt_test

import (
	"fmt"

	"hurricane/rt"
)

// Example shows the minimal rt flow: bind, call, read results.
func Example() {
	// unaudited: an Example builds its System as a program would, with no testing.TB to audit it
	sys := rt.NewSystemOptions(rt.Options{})
	defer sys.Close()
	svc, _ := sys.Bind(rt.ServiceConfig{
		Name: "adder",
		Handler: func(ctx *rt.Ctx, args *rt.Args) {
			args[2] = args[0] + args[1]
		},
	})
	c := sys.NewClientWith(rt.ClientOptions{Shard: -1})
	var args rt.Args
	args[0], args[1] = 40, 2
	if err := c.Call(svc.EP(), &args); err != nil {
		panic(err)
	}
	fmt.Println(args[2])
	// Output:
	// 42
}

// Example_scratch demonstrates the recycled per-call scratch buffer —
// the rt analogue of the paper's serially-shared stack pages.
func Example_scratch() {
	// unaudited: an Example builds its System as a program would, with no testing.TB to audit it
	sys := rt.NewSystemOptions(rt.Options{Shards: 1})
	defer sys.Close()
	svc, _ := sys.Bind(rt.ServiceConfig{
		Name: "render",
		Handler: func(ctx *rt.Ctx, args *rt.Args) {
			buf := ctx.Scratch() // borrowed for this call only
			n := copy(buf, "scratch work")
			args[0] = uint64(n)
		},
	})
	c := sys.NewClientWith(rt.ClientOptions{Shard: -1})
	var args rt.Args
	c.Call(svc.EP(), &args)
	fmt.Println(args[0])
	// Output:
	// 12
}
