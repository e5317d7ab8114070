// Package rmwbudget holds each warm path to a stated number of
// lock-prefixed instructions. On amd64 every sync/atomic write — Add,
// CompareAndSwap, Swap, And, Or, and Store too, which compiles to XCHG
// — is one, costs about as much as the rest of a short call path put
// together, and drains the store buffer besides; the paper's PPC takes
// none on its common path, and rt accounts for the few it must.
//
// A function annotated //ppc:rmwbudget(N) is a root. The analyzer counts
// the atomic write sites in its body and in every function statically
// reachable from it, stopping at //ppc:coldpath functions, at
// //ppc:boundary packages, at dynamic calls, and at callees that carry a
// budget of their own — an opt-in leg (tenant admission, the health
// gate, a payload claim) is accounted where it is declared, and a path
// that takes it costs the sum. The count must equal N: above it, each
// site is reported with its call chain; below it, the annotation is
// stale and must be lowered, so the number in the source is the number
// on the path.
//
// The count is of sites, not of executions: a site in a loop is one, and
// two sites on exclusive branches are two.
package rmwbudget

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hurricane/tools/ppclint/internal/analysis"
	"hurricane/tools/ppclint/internal/load"
)

const name = "rmwbudget"

// Analyzer is the locked-instruction budget checker.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "//ppc:rmwbudget(N) roots reach exactly N atomic write sites before a //ppc:coldpath boundary",
	Run:  run,
}

// site is one atomic write in a function body.
type site struct {
	pos token.Pos
	op  string // "Add", "CompareAndSwap", ...
}

type funcFacts struct {
	sites   []site
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
		if info.Decl.Body != nil {
			facts[fn] = scanBody(info.Pkg, info.Decl, local, ann)
		}
	}

	roots := make([]*types.Func, 0, len(ann.RMWBudget))
	for fn := range ann.RMWBudget {
		roots = append(roots, fn)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	var diags []analysis.Diagnostic
	for _, root := range roots {
		budget := ann.RMWBudget[root]
		type found struct {
			site
			chain []*types.Func
		}
		var sites []found
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
			for _, s := range f.sites {
				sites = append(sites, found{s, cur.chain})
			}
			for _, callee := range f.callees {
				if visited[callee] || ann.Cold[callee] || ann.RMWBudget[callee] != nil {
					continue
				}
				visited[callee] = true
				queue = append(queue, qent{callee, append(append([]*types.Func{}, cur.chain...), callee)})
			}
		}
		rootName := analysis.FuncDisplayName(root)
		switch {
		case len(sites) > budget.N:
			diags = append(diags, analysis.Diagnostic{
				Pos:      budget.Pos,
				Analyzer: name,
				Message:  fmt.Sprintf("%s reaches %d atomic write sites, budget %d", rootName, len(sites), budget.N),
			})
			for _, s := range sites {
				diags = append(diags, analysis.Diagnostic{
					Pos:      s.pos,
					Analyzer: name,
					Message:  fmt.Sprintf("%s counts against %s's budget of %d (path: %s)", s.op, rootName, budget.N, analysis.ChainString(s.chain)),
				})
			}
		case len(sites) < budget.N:
			diags = append(diags, analysis.Diagnostic{
				Pos:      budget.Pos,
				Analyzer: name,
				Message:  fmt.Sprintf("%s reaches %d atomic write sites, budget %d: lower the annotation", rootName, len(sites), budget.N),
			})
		}
	}
	analysis.SortDiagnostics(prog.Fset, diags)
	return diags
}

// scanBody collects the atomic write sites and static callees of one
// function body, deferred and directly-called func literals included.
func scanBody(pkg *load.Package, decl *ast.FuncDecl, local map[string]bool, ann *analysis.Annotations) *funcFacts {
	f := &funcFacts{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.IndexExpr: // explicit instantiation: f[T](...)
			if sel, ok := fun.X.(*ast.SelectorExpr); ok {
				id = sel.Sel
			} else if x, ok := fun.X.(*ast.Ident); ok {
				id = x
			}
		}
		if id == nil {
			return true
		}
		fn, _ := pkg.Info.Uses[id].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "sync/atomic" {
			if op := writeOp(fn.Name()); op != "" {
				f.sites = append(f.sites, site{call.Pos(), op})
			}
			return true
		}
		if local[fn.Pkg().Path()] && !ann.Boundary[fn.Pkg().Path()] {
			if _, ok := ann.Funcs[fn.Origin()]; ok {
				f.callees = append(f.callees, fn.Origin())
			}
		}
		return true
	})
	return f
}

// writeOp classifies a sync/atomic function or method name: the
// operation's family if it writes, "" for loads. The function forms
// carry a type suffix (AddInt64, StoreUint32).
func writeOp(name string) string {
	for _, op := range []string{"CompareAndSwap", "Add", "Swap", "Store", "And", "Or"} {
		if strings.HasPrefix(name, op) {
			return op
		}
	}
	return ""
}
