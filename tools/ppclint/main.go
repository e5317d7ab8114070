// Command ppclint is the repository's invariant linter: a multichecker
// in the style of golang.org/x/tools/go/analysis/multichecker, built
// entirely on the standard library so the root module stays
// dependency-free and the tool builds offline. It enforces the source
// paper's structural claims — the common-case call path touches no
// shared data, acquires no locks, and allocates nothing — as seven
// analyzers driven by //ppc: annotations:
//
//	hotpath      no locks / blocking / logging / allocation reachable
//	             from a //ppc:hotpath root (up to //ppc:coldpath)
//	rmwbudget    //ppc:rmwbudget(N) roots reach exactly N atomic write
//	             sites (lock-prefixed instructions) before a cold boundary
//	shardconfine //ppc:shard-owned fields stay inside their shard type
//	atomicfield  //ppc:atomic fields are accessed only atomically
//	ordering     //ppc:publishes(f1,f2) fields: stores publish their
//	             payload (write-before-store, load-before-read pairing)
//	casloop      CAS retry loops re-read their witness, stay hot, and
//	             declare ABA protection with //ppc:aba(tag)
//	layout       //ppc:padded structs: //ppc:hotline fields occupy
//	             isolated 64-byte lines, checked against real offsets
//
// Usage (from the module to analyze):
//
//	go run ./tools/ppclint ./...
//	go run ./tools/ppclint -json ./...   # one JSON finding per line
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors. See
// docs/INVARIANTS.md for the annotation grammar and suppression policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hurricane/tools/ppclint/internal/analysis"
	"hurricane/tools/ppclint/internal/analyzers/atomicfield"
	"hurricane/tools/ppclint/internal/analyzers/casloop"
	"hurricane/tools/ppclint/internal/analyzers/hotpath"
	"hurricane/tools/ppclint/internal/analyzers/layout"
	"hurricane/tools/ppclint/internal/analyzers/ordering"
	"hurricane/tools/ppclint/internal/analyzers/rmwbudget"
	"hurricane/tools/ppclint/internal/analyzers/shardconfine"
	"hurricane/tools/ppclint/internal/load"
)

var all = []*analysis.Analyzer{
	hotpath.Analyzer,
	rmwbudget.Analyzer,
	shardconfine.Analyzer,
	atomicfield.Analyzer,
	ordering.Analyzer,
	casloop.Analyzer,
	layout.Analyzer,
}

// jsonFinding is the -json wire format: one object per line, stable
// field names, paths relative to the analyzed module root.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("dir", ".", "directory whose module is analyzed")
	asJSON := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ppclint [-run hotpath,...] [-dir .] [-json] packages...\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	selected := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "ppclint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	prog, err := load.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppclint: loading %s (patterns %s): %v\n", *dir, strings.Join(patterns, " "), err)
		os.Exit(2)
	}
	aprog := &analysis.Program{
		Fset:        prog.Fset,
		Packages:    prog.Packages,
		Annotations: analysis.CollectAnnotations(prog.Fset, prog.Packages),
	}

	root := load.ModuleRoot(*dir)
	diags := append([]analysis.Diagnostic(nil), aprog.Annotations.Problems...)
	for _, a := range selected {
		diags = append(diags, a.Run(aprog)...)
	}
	analysis.SortDiagnostics(prog.Fset, diags)
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		if *asJSON {
			enc.Encode(jsonFinding{
				File:     load.TrimPath(root, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			continue
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", load.TrimPath(root, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ppclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
