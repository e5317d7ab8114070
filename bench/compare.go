package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef mirrors one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is how far b is from a in the worse direction, as a share of
// a; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles checks result file b against result file a: every
// end-to-end (metric, workload) present in both, b's value against a's,
// with the bound BENCHMARK.json gives the metric. It prints one row per
// pair and returns the exit code: 1 if any pair is worse by more than
// its bound.
func compareFiles(pathA, pathB, manifestPath string) int {
	var a, b resultFile
	var mf manifest
	for _, in := range []struct {
		path string
		v    any
	}{{pathA, &a}, {pathB, &b}, {manifestPath, &mf}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	code := 0
	fmt.Printf("%-16s %-14s %14s %7s %14s %7s %8s %6s\n", "workload", "metric", "a", "spread", "b", "spread", "worse", "bound")
	for _, name := range workloadNames() {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range mf.EndToEnd {
			va, okA := ra.Metrics[def.Name]
			vb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			w := worseBy(va.Value, vb.Value, def.Better)
			verdict := ""
			if w > def.Bound {
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Printf("%-16s %-14s %14.6g %7.3f %14.6g %7.3f %+8.3f %6.2f%s\n",
				name, def.Name, va.Value, va.Spread, vb.Value, vb.Spread, w, def.Bound, verdict)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-16s a correct: %v, b correct: %v\n", name, ra.Correct, rb.Correct)
			code = 1
		}
	}
	return code
}
