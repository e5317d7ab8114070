// Benchmarks regenerating the paper's evaluation, one per figure plus
// the ablations and the real-concurrency (rt) scaling benches.
//
// Simulator benches report the *simulated* metrics the paper reports
// (sim-us/call, sim-calls/sec) via b.ReportMetric; the wall-clock
// ns/op of those benches is just simulator execution speed. The rt
// benches report real ns/op on real goroutines.
//
// Run with:
//
//	go test -bench=. -benchmem
package hurricane_test

import (
	"fmt"
	"testing"

	"hurricane"
	"hurricane/internal/experiments"
	"hurricane/internal/rtbench"
	"hurricane/rt"
)

// --- Figure 2: round-trip null PPC cost, eight configurations -------

func BenchmarkFigure2(b *testing.B) {
	for _, cfg := range experiments.StandardFigure2Configs() {
		cfg := cfg
		name := "UserToUser"
		if cfg.KernelTarget {
			name = "UserToKernel"
		}
		cache := "Primed"
		if cfg.Cache == experiments.CacheFlushed {
			cache = "Flushed"
		}
		cd := "PooledCD"
		if cfg.HoldCD {
			cd = "HeldCD"
		}
		b.Run(fmt.Sprintf("%s/%s/%s", name, cache, cd), func(b *testing.B) {
			var last experiments.Fig2Result
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunFigure2One(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.TotalMicros, "sim-us/call")
		})
	}
}

// --- Figure 3: file-server throughput vs processors -----------------

func BenchmarkFigure3(b *testing.B) {
	for _, mode := range []experiments.Fig3Mode{experiments.DifferentFiles, experiments.SingleFile} {
		mode := mode
		for _, procs := range []int{1, 2, 4, 8, 16} {
			procs := procs
			b.Run(fmt.Sprintf("%s/procs=%d", sanitize(mode.String()), procs), func(b *testing.B) {
				var cps float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.RunFigure3(procs, mode)
					if err != nil {
						b.Fatal(err)
					}
					cps = res.Points[len(res.Points)-1].CallsPerSecond
				}
				b.ReportMetric(cps, "sim-calls/sec")
			})
		}
	}
}

// --- E3: the in-text sequential GetLength base (66 us) --------------

func BenchmarkGetLengthSequential(b *testing.B) {
	sys, err := hurricane.NewSystem(1)
	if err != nil {
		b.Fatal(err)
	}
	bob, err := sys.InstallFileServer(0)
	if err != nil {
		b.Fatal(err)
	}
	c := sys.Kernel().NewClientProgram("client", 0)
	tok, err := hurricane.OpenFile(c, bob.EP(), "f", true)
	if err != nil {
		b.Fatal(err)
	}
	p := c.P()
	for i := 0; i < 4; i++ { // warm
		if _, err := hurricane.GetLength(c, bob.EP(), tok); err != nil {
			b.Fatal(err)
		}
	}
	start := p.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hurricane.GetLength(c, bob.EP(), tok); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	simUS := sys.Machine().Params().CyclesToMicros(p.Now()-start) / float64(b.N)
	b.ReportMetric(simUS, "sim-us/call")
}

// --- E5: locked message-passing baseline vs PPC ---------------------

func BenchmarkBaselineIPC(b *testing.B) {
	for _, procs := range []int{1, 4, 8} {
		procs := procs
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var res experiments.BaselineResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunBaselineComparison(procs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PPCCalls[procs-1], "sim-ppc-calls/sec")
			b.ReportMetric(res.BaselineCall[procs-1], "sim-locked-calls/sec")
		})
	}
}

// --- E6: serial stack sharing vs held stacks ------------------------

func BenchmarkAblationStackSharing(b *testing.B) {
	var res experiments.StackSharingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunStackSharingAblation(12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PooledCallMicros, "sim-us/pooled-call")
	b.ReportMetric(res.HeldCallMicros, "sim-us/held-call")
}

// --- E7: NUMA placement ---------------------------------------------

func BenchmarkAblationNUMA(b *testing.B) {
	var res experiments.NUMAResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunNUMAAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LocalMicros[0], "sim-us/local-call")
	b.ReportMetric(res.MisplacedMicros, "sim-us/misplaced-call")
}

// --- E11: the hardware-coherence counterfactual ---------------------

func BenchmarkAblationCoherence(b *testing.B) {
	var cc experiments.CoherenceComparison
	var err error
	for i := 0; i < b.N; i++ {
		cc, err = experiments.RunCoherenceComparison(8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cc.NoCoherenceSingle.Points[7].CallsPerSecond, "sim-hector-single-calls/sec")
	b.ReportMetric(cc.CoherentSingle.Points[7].CallsPerSecond, "sim-cc-single-calls/sec")
}

// --- E8: real-concurrency (rt) scaling ------------------------------
//
// The rt benchmark bodies live in internal/rtbench; these wrappers only
// give them their `go test` names.

// BenchmarkRTCall measures the sequential PPC-style fast path —
// Figure 2's "hold CD" configuration, now the Client.Call default.
func BenchmarkRTCall(b *testing.B) { rtbench.SyncCall(b) }

// BenchmarkRTCallDeadline is the warm call through the deadline executor
// with a per-call deadline armed each iteration — the cost of
// cancellability on the sync path.
func BenchmarkRTCallDeadline(b *testing.B) { rtbench.SyncCallDeadline(b) }

// BenchmarkRTCallDeadlineShort arms a deadline a few ticks out, so the
// shard tick reads the deadline word while the warm path rewrites it.
func BenchmarkRTCallDeadlineShort(b *testing.B) { rtbench.SyncCallDeadlineShort(b) }

// BenchmarkHostPingPongSpin, BenchmarkHostPingPongChan and
// BenchmarkHostGosched are the host's goroutine-rendezvous floors (no
// rt code): what the deadline and async handoffs are judged against.
// Run them at -cpu 1,2 — which is cheaper is a property of the host.
func BenchmarkHostPingPongSpin(b *testing.B) { rtbench.HostPingPongSpin(b) }
func BenchmarkHostPingPongChan(b *testing.B) { rtbench.HostPingPongChan(b) }
func BenchmarkHostGosched(b *testing.B)      { rtbench.HostGosched(b) }

// BenchmarkHostLockedOp is the host's price per uncontended atomic
// operation on an owned line — Add, CAS, Store (XCHG), Load — the unit
// the warm paths' //ppc:rmwbudget annotations count.
func BenchmarkHostLockedOp(b *testing.B) { rtbench.HostLockedOp(b) }

// BenchmarkRTCallPooled is the same call through the per-call pool
// discipline (pop + push, one CAS pair per call) — the held/pooled gap
// is Figure 2's CD-management delta.
func BenchmarkRTCallPooled(b *testing.B) { rtbench.SyncCallPooled(b) }

// BenchmarkRTCallParallel measures the shared-nothing path under full
// parallelism: one client (shard) per worker goroutine.
func BenchmarkRTCallParallel(b *testing.B) { rtbench.SyncCallParallel(b) }

// BenchmarkRTCallParallelPooled is the parallel load on the pooled
// path, where same-shard workers bounce the free-list head line.
func BenchmarkRTCallParallelPooled(b *testing.B) { rtbench.SyncCallParallelPooled(b) }

// BenchmarkRTCentralParallel is the locked baseline under the same
// load: one mutex and a shared pool on every call.
func BenchmarkRTCentralParallel(b *testing.B) { rtbench.CentralParallel(b) }

// BenchmarkRTChannelParallel is the message-passing baseline: two
// channel handoffs per call through a fixed server pool.
func BenchmarkRTChannelParallel(b *testing.B) { rtbench.ChannelParallel(b) }

// BenchmarkRTAsync measures single-shard async submit→complete
// throughput on the lock-free ring path.
func BenchmarkRTAsync(b *testing.B) { rtbench.Async(b) }

// BenchmarkRTAsyncBatch is the same load submitted through the batch
// API: one admission and one wakeup per rtbench.FlushBatchSize
// requests.
func BenchmarkRTAsyncBatch(b *testing.B) { rtbench.AsyncBatch(b) }

// BenchmarkRTAsyncChannelBaseline is the pre-ring channel async path
// under the identical load shape — the "before" of the channel→ring
// substitution.
func BenchmarkRTAsyncChannelBaseline(b *testing.B) { rtbench.AsyncChannelBaseline(b) }

// BenchmarkRTAsyncMultiProducer contends every worker goroutine on one
// shard's ring — the MPSC shape the ring is designed for.
func BenchmarkRTAsyncMultiProducer(b *testing.B) { rtbench.AsyncMultiProducer(b) }

// BenchmarkRTAsyncChannelMultiProducer is the same contended load on
// the pre-ring channel path.
func BenchmarkRTAsyncChannelMultiProducer(b *testing.B) {
	rtbench.AsyncChannelBaselineMultiProducer(b)
}

// BenchmarkRTAsyncLanes prices the whole priority-lane feature on the
// warm path: the Async load shape through a three-lane shard's
// critical ring and weighted dequeue.
func BenchmarkRTAsyncLanes(b *testing.B) { rtbench.AsyncLanes(b) }

// BenchmarkRTAsyncLanesTenant adds per-tenant token-bucket admission
// on top — the delta against BenchmarkRTAsyncLanes is the bucket
// lookup plus one fetch-add per submit.
func BenchmarkRTAsyncLanesTenant(b *testing.B) { rtbench.AsyncLanesTenant(b) }

// BenchmarkRTPayloadZeroCopy is the zero-copy large-payload grid:
// lease an arena segment, produce the bytes in place, attach the
// scatter-gather descriptor, call — no memcpy at any size.
func BenchmarkRTPayloadZeroCopy(b *testing.B) {
	for _, n := range rtbench.PayloadSizes {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) { rtbench.PayloadZeroCopy(n)(b) })
	}
}

// BenchmarkRTPayloadCopy is the copy baseline on the same grid: the
// caller's bytes live outside the arena and every call memcpys them in
// (AttachBytes, offload lane disabled).
func BenchmarkRTPayloadCopy(b *testing.B) {
	for _, n := range rtbench.PayloadSizes {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) { rtbench.PayloadCopy(n)(b) })
	}
}

// BenchmarkRTPayloadOffload streams staged large transfers through the
// async ring: the producer returns after the descriptor publish and
// the memcpy lands on the offload worker.
func BenchmarkRTPayloadOffload(b *testing.B) {
	for _, n := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) { rtbench.PayloadOffload(n)(b) })
	}
}

// BenchmarkRTPayloadCopyAsync is the offload bench's inline baseline:
// the identical pipelined load with the producer doing every memcpy.
func BenchmarkRTPayloadCopyAsync(b *testing.B) {
	for _, n := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) { rtbench.PayloadCopyAsync(n)(b) })
	}
}

// BenchmarkRTScratchUse measures a handler that actually uses the
// recycled scratch buffer (the serial stack-page sharing).
func BenchmarkRTScratchUse(b *testing.B) {
	sys := rt.NewSystem()
	svc, err := sys.Bind(rt.ServiceConfig{Name: "scratch", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		s := ctx.Scratch()
		for i := 0; i < 256; i++ {
			s[i] = byte(i)
		}
		args[0] = uint64(s[17])
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		c := sys.NewClient()
		var args rt.Args
		for pb.Next() {
			if err := c.Call(svc.EP(), &args); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}
