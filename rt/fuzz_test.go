package rt

import "testing"

// FuzzOpFlags checks the opcode/flags packing is lossless for all
// inputs.
func FuzzOpFlags(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(1), uint32(2))
	f.Add(^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, op, flags uint32) {
		w := OpFlags(op, flags)
		if Op(w) != op || Flags(w) != flags {
			t.Fatalf("pack(%#x,%#x) -> %#x -> (%#x,%#x)", op, flags, w, Op(w), Flags(w))
		}
	})
}

// FuzzCallRobustness throws arbitrary entry points and argument blocks
// at a live system; no input may panic or corrupt counters.
func FuzzCallRobustness(f *testing.F) {
	sys := newSystem(f, Options{Shards: 2})
	svc, err := sys.Bind(ServiceConfig{Name: "echo", Handler: func(ctx *Ctx, args *Args) {
		args[1] = args[0]
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(2), uint64(7))
	f.Add(uint16(9999), uint64(0))
	f.Fuzz(func(t *testing.T, ep uint16, a0 uint64) {
		c := sys.NewClientWith(ClientOptions{Shard: int(a0 % 2)})
		var args Args
		args[0] = a0
		err := c.Call(EntryPointID(ep), &args)
		if EntryPointID(ep) == svc.EP() {
			if err != nil {
				t.Fatalf("valid call failed: %v", err)
			}
			if args[1] != a0 {
				t.Fatalf("echo broken: %d != %d", args[1], a0)
			}
		} else if err == nil {
			t.Fatalf("call to unbound ep %d succeeded", ep)
		}
	})
}
