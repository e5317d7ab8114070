// Package hotpath enforces the paper's structural invariant: a PPC-style
// call path must acquire no locks, touch no shared mutable structures,
// block on nothing, and allocate nothing (Gamsa/Krieger/Stumm §3). It
// walks the static call graph from every //ppc:hotpath function, stops
// at //ppc:coldpath functions and //ppc:boundary packages, and reports
// each forbidden construct with the full call chain from the annotated
// root.
//
// Forbidden on a hot path:
//
//   - sync.Mutex/RWMutex/Once/Cond/WaitGroup.Wait, sync.Map, sync.Pool
//   - channel send/receive/range and select — except a select with a
//     default clause, whose communications are non-blocking by
//     construction (the shape rt delivers a completion notification with)
//   - time.Sleep/timers, runtime.Gosched/GC, fmt, log, print/println
//   - the simulated locks of hurricane/internal/locks (exactly the
//     shared lock whose Figure 3 curve collapses at 4 CPUs)
//   - heap allocation: make/new/append, &composite-literal, slice or
//     map literals, string<->[]byte conversions, closures (other than
//     a func literal called directly by defer, which is open-coded),
//     map writes (insert/delete may grow or rehash), go statements
//
// Dynamic calls (func values, interface methods) are walk boundaries:
// the handler a call invokes is the server's business, not the call
// machinery's. The invariant protects the machinery.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hurricane/tools/ppclint/internal/analysis"
	"hurricane/tools/ppclint/internal/load"
)

// name is the analyzer name used in diagnostics.
const name = "hotpath"

// Analyzer is the hotpath invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "functions reachable from //ppc:hotpath roots must not lock, block, log, or allocate",
	Run:  run,
}

// violation is one forbidden construct found in a function body.
type violation struct {
	pos  token.Pos
	what string
}

// funcFacts caches the per-function scan: violations in the body and
// statically-resolved callees to descend into.
type funcFacts struct {
	viols   []violation
	callees []*types.Func
}

func run(prog *analysis.Program) []analysis.Diagnostic {
	ann := prog.Annotations
	local := make(map[string]bool, len(prog.Packages))
	for _, p := range prog.Packages {
		local[p.PkgPath] = true
	}

	facts := make(map[*types.Func]*funcFacts)
	for fn, info := range ann.Funcs {
		if info.Decl.Body == nil {
			continue
		}
		facts[fn] = scanBody(info.Pkg, info.Decl, local, ann)
	}

	// Breadth-first walk from each root; the BFS tree gives the
	// shortest call chain for the report.
	var diags []analysis.Diagnostic
	seen := make(map[token.Pos]bool) // one report per offending node
	roots := make([]*types.Func, 0, len(ann.Hot))
	for fn := range ann.Hot {
		roots = append(roots, fn)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	for _, root := range roots {
		type qent struct {
			fn    *types.Func
			chain []*types.Func
		}
		visited := map[*types.Func]bool{root: true}
		queue := []qent{{root, []*types.Func{root}}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			f := facts[cur.fn]
			if f == nil {
				continue
			}
			for _, v := range f.viols {
				if seen[v.pos] {
					continue
				}
				seen[v.pos] = true
				diags = append(diags, analysis.Diagnostic{
					Pos:      v.pos,
					Analyzer: name,
					Message:  fmt.Sprintf("%s (hot path: %s)", v.what, analysis.ChainString(cur.chain)),
				})
			}
			for _, callee := range f.callees {
				if visited[callee] || ann.Cold[callee] {
					continue
				}
				visited[callee] = true
				chain := append(append([]*types.Func{}, cur.chain...), callee)
				queue = append(queue, qent{callee, chain})
			}
		}
	}
	analysis.SortDiagnostics(prog.Fset, diags)
	return diags
}

// scanBody collects the forbidden constructs and static callees of one
// function body.
func scanBody(pkg *load.Package, decl *ast.FuncDecl, local map[string]bool, ann *analysis.Annotations) *funcFacts {
	f := &funcFacts{}
	info := pkg.Info

	// Communications of a select that has a default clause are
	// non-blocking; collect them so the walk below can skip them.
	nonblocking := make(map[ast.Node]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		nonblocking[sel] = true
		for _, cl := range sel.Body.List {
			if comm := cl.(*ast.CommClause).Comm; comm != nil {
				nonblocking[comm] = true
				// The receive inside `x := <-ch` / `<-ch`.
				switch c := comm.(type) {
				case *ast.AssignStmt:
					for _, rhs := range c.Rhs {
						nonblocking[ast.Unparen(rhs)] = true
					}
				case *ast.ExprStmt:
					nonblocking[ast.Unparen(c.X)] = true
				}
			}
		}
		return true
	})

	var visit func(n ast.Node, parents []ast.Node) // parents: innermost last
	walk := func(n ast.Node, parents []ast.Node) {
		if n != nil {
			visit(n, parents)
		}
	}
	visit = func(n ast.Node, parents []ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			f.addf(n.Pos(), "spawns a goroutine on the hot path")
		case *ast.SendStmt:
			if !nonblocking[n] {
				f.addf(n.Pos(), "blocking channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonblocking[n] {
				f.addf(n.Pos(), "blocking channel receive")
			}
		case *ast.SelectStmt:
			if !nonblocking[n] {
				f.addf(n.Pos(), "select without a default clause blocks")
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					f.addf(n.Pos(), "ranges over a channel")
				}
			}
		case *ast.FuncLit:
			if !deferredCall(n, parents) {
				f.addf(n.Pos(), "closure allocates (func literal outside a direct defer)")
			}
		case *ast.CompositeLit:
			f.checkComposite(info, n, parents)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.Types[idx.X].Type; t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							f.addf(lhs.Pos(), "map write (may grow or rehash; maps are shared-structure territory)")
						}
					}
				}
			}
		case *ast.CallExpr:
			f.checkCall(info, n, local, ann)
		}

		// Recurse with parent tracking.
		ps := append(parents, n)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			visit(c, ps)
			return false
		})
	}
	// Drive the walk from the top-level statements so every node gets
	// exactly one visit with its parent chain.
	for _, stmt := range decl.Body.List {
		walk(stmt, []ast.Node{decl.Body})
	}
	return f
}

func (f *funcFacts) addf(pos token.Pos, format string, args ...any) {
	f.viols = append(f.viols, violation{pos, fmt.Sprintf(format, args...)})
}

// deferredCall reports whether lit is the function of a call that is the
// immediate operand of defer (open-coded, does not escape).
func deferredCall(lit *ast.FuncLit, parents []ast.Node) bool {
	if len(parents) < 2 {
		return false
	}
	call, ok := parents[len(parents)-1].(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != lit {
		return false
	}
	_, ok = parents[len(parents)-2].(*ast.DeferStmt)
	return ok
}

// checkComposite flags composite literals that force heap allocation:
// slice/map literals, and literals whose address is taken.
func (f *funcFacts) checkComposite(info *types.Info, lit *ast.CompositeLit, parents []ast.Node) {
	if len(parents) > 0 {
		if u, ok := parents[len(parents)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			f.addf(lit.Pos(), "&composite literal escapes to the heap")
			return
		}
		// An element of an already-reported &T{...} or []T{...} literal
		// is covered by the outer report.
		switch parents[len(parents)-1].(type) {
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return
		}
	}
	t := info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		f.addf(lit.Pos(), "slice literal allocates")
	case *types.Map:
		f.addf(lit.Pos(), "map literal allocates")
	}
}

// checkCall classifies one call: builtin allocators, denied standard
// library calls, simulated locks, conversions, or a callee to descend
// into.
func (f *funcFacts) checkCall(info *types.Info, call *ast.CallExpr, local map[string]bool, ann *analysis.Annotations) {
	// Conversions: string<->[]byte/[]rune allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.Types[call.Args[0]].Type
			if from != nil && isStringByteConv(to, from) {
				f.addf(call.Pos(), "string/[]byte conversion allocates")
			}
		}
		return
	}

	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	switch o := obj.(type) {
	case *types.Builtin:
		switch o.Name() {
		case "make":
			f.addf(call.Pos(), "make allocates")
		case "new":
			f.addf(call.Pos(), "new allocates")
		case "append":
			f.addf(call.Pos(), "append may grow (use a capacity-guarded push with a //ppc:coldpath grow helper)")
		case "delete":
			f.addf(call.Pos(), "map delete (map mutation on the hot path)")
		case "print", "println":
			f.addf(call.Pos(), "print on the hot path")
		}
	case *types.Func:
		if o.Pkg() == nil { // error.Error and friends from the universe
			return
		}
		if what := denied(o); what != "" {
			f.addf(call.Pos(), what)
			return
		}
		// Descend only into statically-resolved functions of analyzed,
		// non-boundary packages. Interface methods have no body here.
		if !local[o.Pkg().Path()] || ann.Boundary[o.Pkg().Path()] {
			return
		}
		if _, ok := ann.Funcs[o]; ok {
			f.callees = append(f.callees, o)
		}
	}
}

func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}

// denied reports why a standard-library (or internal/locks) call is
// forbidden on a hot path, or "".
func denied(fn *types.Func) string {
	pkg := fn.Pkg().Path()
	name := fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	switch pkg {
	case "fmt":
		return "calls fmt." + name + " (formats and allocates)"
	case "log", "log/slog":
		return "calls " + pkg + "." + name + " (logging locks and allocates)"
	case "hurricane/internal/locks":
		return "uses the simulated shared lock (" + recv + "." + name + ") — the Figure 3 collapse"
	case "sync":
		switch recv {
		case "Mutex", "RWMutex":
			return "acquires sync." + recv + " (" + name + ")"
		case "Map":
			return "uses sync.Map." + name + " (shared map)"
		case "Once":
			return "sync.Once." + name + " may lock"
		case "Cond":
			return "sync.Cond." + name + " blocks or locks"
		case "Pool":
			return "sync.Pool." + name + " (shared pool; use the shard-local pool)"
		case "WaitGroup":
			if name == "Wait" {
				return "sync.WaitGroup.Wait blocks"
			}
		}
		switch name {
		case "OnceFunc", "OnceValue", "OnceValues":
			return "sync." + name + " wraps a lock"
		}
	case "time":
		switch name {
		case "Sleep":
			return "time.Sleep on the hot path"
		case "NewTimer", "NewTicker", "After", "Tick", "AfterFunc":
			return "time." + name + " allocates a timer"
		}
	case "runtime":
		switch name {
		case "Gosched":
			return "runtime.Gosched yields the processor"
		case "GC":
			return "runtime.GC on the hot path"
		}
	}
	return ""
}
