// Command bench is the repository's benchmark: eight workloads driven
// through hurricane/rt's public API on real processors, measured in
// rounds on freshly built Systems, with outputs verified and a separate
// traced run that attributes time to rt's layers. BENCHMARK.json at the
// root of the repository registers it; README.md beside this file is
// the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd names the metrics an untraced run reports, in print order.
var endToEnd = []string{"ops_per_sec", "lat_mid_ns", "cpu_ns_per_op", "live_heap_mb", "setup_s"}

// value is one reported number. Spread and Rounds are kept in result
// files; the line the driver reads carries value and unit alone.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// report is the outcome of running one workload once.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Info      map[string]value `json:"info,omitempty"` // printed, never gated
	Audit     []string         `json:"audit,omitempty"`
	Noisy     bool             `json:"noisy,omitempty"`
}

// setupCycles is how many timed build/first-operation/close cycles
// precede every round.
const setupCycles = 100

// discardRound is the measured length of the throw-away first round.
const discardRound = 300 * time.Millisecond

type plan struct {
	seed    uint64
	rounds  int
	measure time.Duration // per round
	warm    time.Duration
	setups  int
}

func newPlan(seed uint64, seconds float64, rounds int) plan {
	measure := time.Duration(seconds / float64(rounds) * float64(time.Second))
	return plan{seed: seed, rounds: rounds, measure: measure, warm: min(150*time.Millisecond, measure/4), setups: setupCycles}
}

// runUntraced is the end-to-end run: rounds back to back, each on a
// fresh System, every metric the midmean across rounds.
func runUntraced(d *wlDef, p plan) *report {
	rep := &report{Correct: true, Metrics: map[string]value{}, Info: map[string]value{}}
	series := map[string][]float64{}
	tail := &hist{}
	var mallocs, ops, refused int64
	tailPer := 1.0
	// Round -1 is thrown away: the first round of a process runs on a
	// cold heap and, on a small VM, often on a processor the host has
	// not handed over yet. Its audit still counts.
	for r := -1; r < p.rounds; r++ {
		spec := roundSpec{warm: p.warm, measure: p.measure, setups: p.setups}
		if r < 0 {
			spec.measure = min(p.measure, discardRound)
		}
		res, err := runRound(d.mk(p.seed), spec)
		rep.Audit = append(rep.Audit, res.audit...)
		if err != nil {
			rep.Audit = append(rep.Audit, err.Error())
			break
		}
		rep.Attempted += res.counts.attempted
		rep.Failed += res.counts.failed
		if r < 0 {
			continue
		}
		sec := float64(res.wallNs) / 1e9
		series["ops_per_sec"] = append(series["ops_per_sec"], float64(res.ops)/sec)
		if res.latPer > 0 {
			series["lat_mid_ns"] = append(series["lat_mid_ns"], res.lat.midmean()/res.latPer)
		} else {
			series["lat_mid_ns"] = append(series["lat_mid_ns"], float64(res.wallNs)/float64(max(res.ops, 1)))
		}
		series["cpu_ns_per_op"] = append(series["cpu_ns_per_op"], float64(res.cpuNs)/float64(max(res.ops, 1)))
		series["live_heap_mb"] = append(series["live_heap_mb"], res.heapMB)
		series["setup_s"] = append(series["setup_s"], midmean(res.setupS))
		refused += res.counts.refusedOK
		mallocs += int64(res.mallocs)
		ops += res.ops
		tail.merge(res.lat)
		tailPer = max(res.latPer, 1)
	}
	for _, name := range endToEnd {
		rep.Metrics[name] = value{midmean(series[name]), units[name], spread(series[name]), series[name]}
	}
	rep.Info["allocs_per_op"] = value{Value: float64(mallocs) / float64(max(ops, 1)), Unit: "1"}
	rep.Info["fail_ratio"] = value{Value: float64(rep.Failed+refused) / float64(max(rep.Attempted, 1)), Unit: "1"}
	for _, q := range []struct {
		name string
		q    float64
	}{{"tail.p50_ns", 0.50}, {"tail.p90_ns", 0.90}, {"tail.p99_ns", 0.99}, {"tail.p999_ns", 0.999}} {
		rep.Info[q.name] = value{Value: tail.quantile(q.q) / tailPer, Unit: "ns"}
	}
	rep.Info["tail.samples"] = value{Value: float64(tail.total()), Unit: "count"}
	if len(rep.Audit) > 0 || rep.Attempted < 1 {
		rep.Correct = false
	}
	return rep
}

var units = map[string]string{
	"ops_per_sec": "1/s", "lat_mid_ns": "ns", "cpu_ns_per_op": "ns", "live_heap_mb": "MB", "setup_s": "s",
}

func printValues(name string, keys []string, from map[string]value) {
	for _, k := range keys {
		v := from[k]
		line := fmt.Sprintf("%-16s %-40s %16.6g %-6s", name, k, v.Value, v.Unit)
		if len(v.Rounds) > 1 {
			line += fmt.Sprintf(" spread %.3f over %d rounds", v.Spread, len(v.Rounds))
		}
		fmt.Println(line)
	}
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// findUp looks for name in the working directory and then its parent:
// the benchmark is run from the root of a checkout or from bench/.
func findUp(name string) string {
	for _, dir := range []string{".", ".."} {
		if p := filepath.Join(dir, name); fileExists(p) {
			return p
		}
	}
	return name
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// outDir is bench/out: beside this package's sources, wherever the
// command was started from.
func outDir() string {
	if fileExists("bench/go.mod") {
		return "bench/out"
	}
	return "out"
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	rounds := flag.Int("rounds", 10, "rounds per workload; a metric is the midmean across them")
	seed := flag.Uint64("seed", 1, "workload seed: Poisson schedule, lane draws, payload fill")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload, split across the rounds")
	trace := flag.Int("trace", 0, "1: the traced run, reporting the per-layer metrics")
	jsonOut := flag.String("json", "", "also write the full results to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), findUp("BENCHMARK.json")))
	}
	if flag.NArg() != 0 || *rounds < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var defs []*wlDef
	for i := range workloads {
		if *workload == "all" || *workload == workloads[i].name {
			defs = append(defs, &workloads[i])
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	p := newPlan(*seed, *seconds, *rounds)
	fmt.Printf("# bench: seed %d, %d rounds x %v (+%v warm-up), nproc %d, GOMAXPROCS %d, %s, trace %d\n",
		p.seed, p.rounds, p.measure, p.warm, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *trace)

	file := resultFile{Seed: p.seed, Seconds: *seconds, Rounds: p.rounds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workloads: map[string]*report{}}
	last := &report{Correct: true, Metrics: map[string]value{}}
	for _, d := range defs {
		var rep *report
		if *trace == 1 {
			rep = runTraced(d, p)
			printValues(d.name, sortedKeys(rep.Metrics), rep.Metrics)
		} else {
			rep = runUntraced(d, p)
			printValues(d.name, endToEnd, rep.Metrics)
			printValues(d.name, sortedKeys(rep.Info), rep.Info)
		}
		for _, a := range rep.Audit {
			fmt.Printf("%-16s AUDIT FAILED: %s\n", d.name, a)
		}
		file.Workloads[d.name] = rep
		last.Correct = last.Correct && rep.Correct
		last.Attempted += rep.Attempted
		last.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(defs) > 1 {
				k = d.name + "." + k
			}
			last.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &file); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !last.Correct {
		os.Exit(1)
	}
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Rounds     int                `json:"rounds"`
	Trace      int                `json:"trace"`
	NumCPU     int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Workloads  map[string]*report `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
