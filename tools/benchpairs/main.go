// Command benchpairs runs the repository's benchmark (bench/run.sh) as
// alternating pairs of two commits and prints the table a performance
// claim is judged by: per end-to-end metric of BENCHMARK.json, the median
// and interquartile range of each side, their ratio, the pairs the second
// side won, a two-sided sign-test p, and the verdict — a gain needs nine
// pairs in ten and a median gap larger than the first side's IQR.
//
// Each side is checked out into a temporary git worktree of the
// repository it is run from, so the benchmark builds and runs the
// committed files of that ref; nothing under bench/ is edited. Pair i
// runs A first when i is even and B first when it is odd.
//
// Usage, from inside the repository:
//
//	go run ./tools/benchpairs -a <parent> -b <change> -workload sync_held -pairs 10
//	go run ./tools/benchpairs -aa <ref> -workload sync_held -pairs 10   # A/A: the spread of a null change
//
// -workload takes a comma-separated list, run one workload after the
// other on the same two builds, each with its own table.
// -seconds and -seed are passed to bench/run.sh (defaults 10 and 1, as the
// registered benchmark runs); -json writes every run's metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// result is the last line bench/run.sh prints.
type result struct {
	Correct   bool                               `json:"correct"`
	Attempted int64                              `json:"attempted"`
	Failed    int64                              `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

// run is one benchmark run of one side, as the -json record keeps it.
type run struct {
	Workload string             `json:"workload"`
	Pair     int                `json:"pair"`
	Side     string             `json:"side"`
	Ref      string             `json:"ref"`
	Result   json.RawMessage    `json:"result"`
	Values   map[string]float64 `json:"-"`
	Fail     float64            `json:"-"`
}

func main() {
	var (
		refA     = flag.String("a", "", "first side's ref (the parent)")
		refB     = flag.String("b", "", "second side's ref (the change)")
		refAA    = flag.String("aa", "", "A/A mode: run this ref against itself")
		workload = flag.String("workload", "", "bench workloads to run, comma-separated (required)")
		pairs    = flag.Int("pairs", 10, "number of alternating pairs")
		seconds  = flag.Int("seconds", 10, "bench/run.sh -seconds")
		seed     = flag.Int("seed", 1, "bench/run.sh -seed")
		jsonOut  = flag.String("json", "", "write every run's result to this file")
	)
	flag.Parse()
	if *refAA != "" {
		*refA, *refB = *refAA, *refAA
	}
	if *workload == "" || *refA == "" || *refB == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "benchpairs: need -workload and either -a and -b, or -aa; -pairs ≥ 1")
		flag.Usage()
		os.Exit(2)
	}
	// An interrupt stops the running benchmark and still removes the worktrees.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := mainErr(ctx, *refA, *refB, *workload, *pairs, *seconds, *seed, *jsonOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, refA, refB, workload string, pairs, seconds, seed int, jsonOut string, out io.Writer) error {
	top, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dirs := map[string]string{}
	for _, side := range []struct{ name, ref string }{{"A", refA}, {"B", refB}} {
		dir := filepath.Join(tmp, side.name)
		if _, err := git(top, "worktree", "add", "--detach", dir, side.ref); err != nil {
			return err
		}
		defer git(top, "worktree", "remove", "--force", dir)
		dirs[side.name] = dir
		// Build once before the pairs, so no timed run pays the compile.
		// The program exits at once on -h; its status is of no interest.
		cmd := exec.Command("bash", "bench/run.sh", "-h")
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, io.Discard, io.Discard
		_ = cmd.Run()
	}
	specs, err := readSpecs(filepath.Join(dirs["B"], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var runs []run
	for _, w := range strings.Split(workload, ",") {
		var wruns []run
		for i := 0; i < pairs; i++ {
			order := []string{"A", "B"}
			if i%2 == 1 {
				order = []string{"B", "A"}
			}
			for _, side := range order {
				ref := map[string]string{"A": refA, "B": refB}[side]
				r, err := benchOnce(ctx, dirs[side], w, seconds, seed)
				if err != nil {
					return fmt.Errorf("%s, pair %d, side %s (%s): %w", w, i, side, ref, err)
				}
				r.Workload, r.Pair, r.Side, r.Ref = w, i, side, ref
				wruns = append(wruns, r)
				fmt.Fprintf(os.Stderr, "%s pair %d/%d %s %s done\n", w, i+1, pairs, side, ref)
			}
		}
		report(out, refA, refB, w, specs, wruns)
		runs = append(runs, wruns...)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchOnce runs bench/run.sh once in dir and parses its last line.
func benchOnce(ctx context.Context, dir, workload string, seconds, seed int) (run, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return run{}, fmt.Errorf("bench/run.sh: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run{}, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !res.Correct {
		return run{}, errors.New("the run's audit failed (correct: false)")
	}
	r := run{Result: json.RawMessage(last), Values: map[string]float64{}}
	for name, m := range res.Metrics {
		r.Values[name] = m.Value
	}
	if res.Attempted > 0 {
		r.Fail = float64(res.Failed) / float64(res.Attempted)
	}
	return r, nil
}

// readSpecs reads the end-to-end metrics of a BENCHMARK.json.
func readSpecs(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg.EndToEnd, nil
}

// report prints one row per end-to-end metric and the failed shares.
func report(w io.Writer, refA, refB, workload string, specs []metricSpec, runs []run) {
	side := func(s string) (vals map[string][]float64, fails []float64) {
		vals = map[string][]float64{}
		for _, r := range runs {
			if r.Side != s {
				continue
			}
			for name, v := range r.Values {
				vals[name] = append(vals[name], v)
			}
			fails = append(fails, r.Fail)
		}
		return vals, fails
	}
	a, failA := side("A")
	b, failB := side("B")
	mode := "A/B"
	if refA == refB {
		mode = "A/A"
	}
	fmt.Fprintf(w, "%s  workload %s  A=%s  B=%s  %d pairs\n", mode, workload, refA, refB, len(failA))
	fmt.Fprintf(w, "%-14s %-30s %-30s %7s %6s %8s  %s\n", "metric", "A median [IQR]", "B median [IQR]", "B/A", "won", "sign p", "verdict")
	for _, m := range specs {
		if len(a[m.Name]) != len(b[m.Name]) || len(a[m.Name]) == 0 {
			continue
		}
		s := summarize(m, a[m.Name], b[m.Name], mean(failA), mean(failB))
		fmt.Fprintf(w, "%-14s %-30s %-30s %7.3f %3d/%-2d %8.3g  %s\n", m.Name,
			fmt.Sprintf("%.4g [%.4g–%.4g]", s.MedA, s.Q1A, s.Q3A),
			fmt.Sprintf("%.4g [%.4g–%.4g]", s.MedB, s.Q1B, s.Q3B),
			s.Ratio, s.Wins, s.Pairs, s.P, s.Verdict)
	}
	fmt.Fprintf(w, "failed share: A mean %.3g (max %.3g), B mean %.3g (max %.3g)\n",
		mean(failA), quantile(failA, 1), mean(failB), quantile(failB, 1))
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}
