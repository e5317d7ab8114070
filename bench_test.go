// Benchmarks regenerating the paper's evaluation on the simulator
// (Track A), one per figure plus the ablations. rt's are in
// internal/rtbench and, registered, in bench/.
//
// The benches report the *simulated* metrics the paper reports
// (sim-us/call, sim-calls/sec) via b.ReportMetric; the wall-clock
// ns/op of those benches is just simulator execution speed.
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
