// Package casloop checks CAS retry-loop discipline for the lock-free
// protocols: a CompareAndSwap inside a `for` loop must re-read its
// witness (the expected-value argument) on every iteration — a witness
// read once outside the loop goes stale and the CAS livelocks or,
// worse, succeeds against a recycled value; the loop must not call
// cold or blocking functions except on a path that exits the loop
// (return/break); and a loop that re-reads state *through* a pointer
// witness before CASing it (the Treiber-pop shape) is ABA-sensitive
// and must be annotated //ppc:aba(tag), naming the generation field
// that protects it. Garbage collection is no such field: it rules out
// address reuse, not a node that is popped and pushed back while a stale
// popper still holds it.
//
// Scope and approximations: only `for` statements are considered retry
// loops (`range` loops iterate, they don't retry); the exit-path
// exemption fires when any enclosing statement list inside the loop
// ends in return/break, a sound-enough stand-in for "this branch
// leaves the loop"; blocking detection covers channel operations,
// selects without default, time.Sleep, sync lock methods, and
// fmt/log output, matching the hotpath analyzer's taxonomy.
package casloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hurricane/tools/ppclint/internal/analysis"
)

// Analyzer is the CAS retry-loop checker.
var Analyzer = &analysis.Analyzer{
	Name: "casloop",
	Doc:  "CAS retry loops re-read their witness, stay hot, and declare ABA protection with //ppc:aba(tag)",
	Run:  run,
}

func run(prog *analysis.Program) []analysis.Diagnostic {
	ann := prog.Annotations
	var diags []analysis.Diagnostic

	funcs := make([]*types.Func, 0, len(ann.Funcs))
	for fn := range ann.Funcs {
		funcs = append(funcs, fn)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Pos() < funcs[j].Pos() })

	for _, fn := range funcs {
		fi := ann.Funcs[fn]
		if fi.Decl.Body == nil || ann.Boundary[fi.Pkg.PkgPath] {
			continue
		}
		diags = append(diags, checkFunc(prog, fn, fi)...)
	}
	return diags
}

func checkFunc(prog *analysis.Program, fn *types.Func, fi *analysis.FuncInfo) []analysis.Diagnostic {
	ann := prog.Annotations
	info := fi.Pkg.Info
	body := fi.Decl.Body
	parents := analysis.Parents(body)
	var diags []analysis.Diagnostic

	// Gather every CAS inside a for loop, keyed by its innermost loop.
	type casSite struct {
		op   *analysis.AtomicOp
		loop *ast.ForStmt
	}
	var sites []casSite
	loops := make(map[*ast.ForStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op := analysis.AsAtomicOp(info, call)
		if op == nil || op.Kind != analysis.OpCAS {
			return true
		}
		if loop := enclosingFor(parents, call); loop != nil {
			sites = append(sites, casSite{op, loop})
			loops[loop] = true
		}
		return true
	})

	for _, s := range sites {
		// Witness staleness: some local variable the expected-value
		// argument depends on must be reassigned inside the loop.
		wvars := localVars(info, s.op.Old)
		if len(wvars) > 0 && !anyAssignedIn(info, s.loop, wvars) {
			diags = append(diags, analysis.Diagnostic{
				Pos:      s.op.Call.Pos(),
				Analyzer: "casloop",
				Message: "CAS witness " + types.ExprString(s.op.Old) +
					" is not re-read inside the retry loop (stale-value CAS)",
			})
		}

		// ABA shape: pointer witness read through before the CAS.
		if obj := pointerWitness(info, s.op.Old); obj != nil && readsThrough(info, s.loop, obj, s.op.Call.Pos()) {
			if ann.ABA[fn] == nil {
				diags = append(diags, analysis.Diagnostic{
					Pos:      s.op.Call.Pos(),
					Analyzer: "casloop",
					Message: "CAS loop reads through its pointer witness " + types.ExprString(s.op.Old) +
						" (ABA-sensitive); annotate " + analysis.FuncDisplayName(fn) +
						" //ppc:aba(tag) naming the protecting generation field (a tag every push raises;" +
						" the collector does not stop a node being popped and pushed back)",
				})
			}
		}
	}

	// An //ppc:aba annotation on a function with no CAS retry loop at
	// all is drift.
	if a := ann.ABA[fn]; a != nil && len(sites) == 0 {
		diags = append(diags, analysis.Diagnostic{
			Pos:      a.Pos,
			Analyzer: "casloop",
			Message:  "//ppc:aba on " + analysis.FuncDisplayName(fn) + " but it contains no CAS retry loop",
		})
	}

	// Cold/blocking work inside each CAS loop, except on exit paths.
	loopList := make([]*ast.ForStmt, 0, len(loops))
	for l := range loops {
		loopList = append(loopList, l)
	}
	sort.Slice(loopList, func(i, j int) bool { return loopList[i].Pos() < loopList[j].Pos() })
	for _, loop := range loopList {
		diags = append(diags, checkLoopBody(ann, info, parents, loop)...)
	}

	return diags
}

// checkLoopBody flags cold or blocking constructs inside a CAS retry
// loop unless they sit on a path that exits the loop.
func checkLoopBody(ann *analysis.Annotations, info *types.Info, parents map[ast.Node]ast.Node, loop *ast.ForStmt) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	flag := func(n ast.Node, msg string) {
		if onExitPath(parents, n, loop) {
			return
		}
		diags = append(diags, analysis.Diagnostic{Pos: n.Pos(), Analyzer: "casloop", Message: msg + " inside a CAS retry loop"})
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's body runs elsewhere
		case *ast.ForStmt:
			if n != loop && loops(info, n) {
				return false // nested CAS loop judged on its own
			}
		case *ast.SendStmt:
			flag(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				flag(n, "channel receive")
			}
		case *ast.SelectStmt:
			if !hasDefault(n) {
				flag(n, "blocking select")
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				switch {
				case ann.Cold[fn]:
					flag(n, "call to //ppc:coldpath "+analysis.FuncDisplayName(fn))
				case isBlockingStdlib(fn):
					flag(n, "call to "+stdlibName(fn))
				}
			}
		}
		return true
	})
	return diags
}

// loops reports whether a nested for statement contains its own CAS.
func loops(info *types.Info, f *ast.ForStmt) bool {
	found := false
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op := analysis.AsAtomicOp(info, call); op != nil && op.Kind == analysis.OpCAS {
				found = true
			}
		}
		return !found
	})
	return found
}

// enclosingFor finds the innermost for statement containing n, not
// crossing function-literal boundaries.
func enclosingFor(parents map[ast.Node]ast.Node, n ast.Node) *ast.ForStmt {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch cur := cur.(type) {
		case *ast.FuncLit:
			return nil
		case *ast.ForStmt:
			return cur
		}
	}
	return nil
}

// localVars collects the local (non-field, non-package) variables an
// expression depends on.
func localVars(info *types.Info, e ast.Expr) []*types.Var {
	if e == nil {
		return nil
	}
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a per-iteration witness
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// anyAssignedIn reports whether any of vars is (re)assigned inside the
// loop body or post statement.
func anyAssignedIn(info *types.Info, loop *ast.ForStmt, vars []*types.Var) bool {
	want := make(map[*types.Var]bool, len(vars))
	for _, v := range vars {
		want[v] = true
	}
	found := false
	mark := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if v, ok := info.Defs[id].(*types.Var); ok && want[v] {
			found = true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && want[v] {
			found = true
		}
	}
	scan := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X) // address taken: may be written through
				}
			}
			return true
		})
	}
	scan(loop.Body)
	scan(loop.Post)
	return found
}

// pointerWitness returns the object of a plain pointer-typed witness
// identifier, or nil.
func pointerWitness(info *types.Info, e ast.Expr) *types.Var {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	switch v.Type().Underlying().(type) {
	case *types.Pointer:
		return v
	}
	if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return v
	}
	return nil
}

// readsThrough reports whether the loop body selects a field through
// obj (e.g. top.next) before position before — the re-validation read
// that makes a CAS ABA-sensitive.
func readsThrough(info *types.Info, loop *ast.ForStmt, obj *types.Var, before token.Pos) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Pos() >= before {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && v == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// onExitPath reports whether n sits on a path that exits the loop: its
// own statement is a return, or an enclosing statement list (inside
// the loop) ends in return or break.
func onExitPath(parents map[ast.Node]ast.Node, n ast.Node, loop *ast.ForStmt) bool {
	for cur := n; cur != nil && cur != loop; cur = parents[cur] {
		if _, ok := cur.(*ast.ReturnStmt); ok {
			return true
		}
		stmt, ok := cur.(ast.Stmt)
		if !ok {
			continue
		}
		var list []ast.Stmt
		switch c := parents[stmt].(type) {
		case *ast.BlockStmt:
			list = c.List
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		default:
			continue
		}
		if len(list) == 0 {
			continue
		}
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			if last.Tok == token.BREAK {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves a call's static callee.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func stdlibPkg(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

func stdlibName(fn *types.Func) string {
	return stdlibPkg(fn) + "." + fn.Name()
}

// isBlockingStdlib classifies the standard-library calls that have no
// place inside a CAS retry loop: sleeping, locking, and output.
func isBlockingStdlib(fn *types.Func) bool {
	switch stdlibPkg(fn) {
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "Wait", "Do":
			return true
		}
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
	case "log":
		return true
	}
	return false
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
