// Package analysis is ppclint's tiny analyzer framework: the shape of
// golang.org/x/tools/go/analysis (Analyzer, diagnostics, a driver
// contract) re-implemented on the standard library so the linter can be
// built offline with no dependencies. Analyzers run over a whole
// Program (all module-local packages at once) because the invariants
// they enforce — hot-path reachability, shard confinement — cross
// package boundaries.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"hurricane/tools/ppclint/internal/load"
)

// Diagnostic is one finding, positioned at the offending node.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Diagnostic
}

// Program is the analyzed world: the loaded packages plus the parsed
// //ppc: annotation index shared by all analyzers.
type Program struct {
	Fset        *token.FileSet
	Packages    []*load.Package
	Annotations *Annotations
}

// FuncInfo ties a declared function to its syntax and owning package.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *load.Package
}

// FieldInfo ties an annotated struct field to its declaration site.
type FieldInfo struct {
	Owner *types.Named // the struct's named type
	Field *types.Var
	Pkg   *load.Package
	Pos   token.Pos
}

// PublishInfo is one //ppc:publishes(f1,f2) directive: the annotated
// atomic field plus its resolved sibling payload fields.
type PublishInfo struct {
	FieldInfo
	Payload []*types.Var // sibling fields published by stores to Field
}

// HotlineInfo is one //ppc:hotline[(group)] directive. Fields sharing a
// group may share cache lines with each other but with nothing else;
// an ungrouped hotline field is its own singleton group.
type HotlineInfo struct {
	FieldInfo
	Group string
}

// PaddedInfo is one //ppc:padded directive on a struct type.
type PaddedInfo struct {
	Owner *types.Named
	Pkg   *load.Package
	Pos   token.Pos
}

// BudgetInfo is one //ppc:rmwbudget(N) directive on a function: the
// number of atomic write sites its warm path may reach.
type BudgetInfo struct {
	N   int
	Pos token.Pos
}

// ABAInfo is one //ppc:aba(tag) directive on a function: tag names the
// generation field that defeats ABA, or is the literal "gc" when Go's
// garbage collector rules out address reuse.
type ABAInfo struct {
	Tag string
	Pos token.Pos
}

// Annotations is the parsed //ppc: directive index.
//
// The grammar (one directive per comment line, in a declaration's doc
// comment; `-- reason` suffixes are free text):
//
//	//ppc:hotpath [-- note]           on a func: root of a hot path
//	//ppc:coldpath -- reason          on a func: walk boundary (reason required)
//	//ppc:shard(Type) [-- reason]     on a func: may touch Type's shard-owned fields
//	//ppc:aba(tag) [-- reason]        on a func: its CAS retry loop is ABA-sensitive,
//	                                  protected by generation field `tag` (or "gc")
//	//ppc:rmwbudget(N) [-- note]      on a func: root of a locked-instruction budget —
//	                                  exactly N atomic write sites reachable before a
//	                                  //ppc:coldpath or another budgeted function
//	//ppc:shard-owned                 on a struct field: confined to its owner
//	//ppc:atomic                      on a struct field: sync/atomic access only
//	//ppc:publishes(f1,f2)            on a struct field: stores to it publish the
//	                                  named sibling payload fields (release/acquire)
//	//ppc:hotline[(group)]            on a struct field: must occupy an isolated
//	                                  64-byte line (shared only within its group)
//	//ppc:padded                      on a struct type: layout is checked against
//	                                  real offsets/sizes by the layout analyzer
//	//ppc:boundary -- reason          in a package doc: calls into this package
//	                                  are not walked (it models the machine)
//	//ppc:nopublish -- reason         inline, on/above a store statement: this
//	                                  store of a //ppc:publishes field publishes
//	                                  no payload (sentinel, recycle, construction)
type Annotations struct {
	Hot       map[*types.Func]bool
	Cold      map[*types.Func]bool
	ShardOf   map[*types.Func][]string // type names granted by //ppc:shard(T)
	ABA       map[*types.Func]*ABAInfo
	RMWBudget map[*types.Func]*BudgetInfo
	Owned     map[*types.Var]*FieldInfo
	Atomic    map[*types.Var]*FieldInfo
	Publishes map[*types.Var]*PublishInfo
	Hotline   map[*types.Var]*HotlineInfo
	Padded    map[*types.Named]*PaddedInfo
	Boundary  map[string]bool // package path -> //ppc:boundary
	Funcs     map[*types.Func]*FuncInfo

	// NoPublish records //ppc:nopublish suppression comments by file
	// and line; a store on (or directly below) a recorded line is
	// exempt from the ordering analyzer's publish check.
	NoPublish map[string]map[int]bool

	// Problems are malformed or contradictory directives, reported by
	// the driver as diagnostics in their own right.
	Problems []Diagnostic
}

// directive is one parsed //ppc: line.
type directive struct {
	verb   string // "hotpath", "coldpath", "shard", ...
	arg    string // parenthesized argument, if any
	reason string // text after "--", if any
	pos    token.Pos
}

// parseDirectives extracts //ppc: lines from a comment group.
func parseDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//ppc:")
		if !ok {
			continue
		}
		// A directive may carry a trailing //-comment on the same line
		// (fixtures use this for want annotations); it is not part of
		// the directive or its reason.
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		d := directive{pos: c.Pos()}
		if body, reason, ok := strings.Cut(text, "--"); ok {
			text, d.reason = strings.TrimSpace(body), strings.TrimSpace(reason)
		} else {
			text = strings.TrimSpace(text)
		}
		if i := strings.IndexByte(text, '('); i >= 0 && strings.HasSuffix(text, ")") {
			d.verb = text[:i]
			d.arg = strings.TrimSpace(text[i+1 : len(text)-1])
		} else {
			d.verb = text
		}
		out = append(out, d)
	}
	return out
}

// CollectAnnotations parses every //ppc: directive in the program. The
// FileSet is needed to place inline //ppc:nopublish suppressions, which
// attach to source lines rather than declarations.
func CollectAnnotations(fset *token.FileSet, pkgs []*load.Package) *Annotations {
	a := &Annotations{
		Hot:       make(map[*types.Func]bool),
		Cold:      make(map[*types.Func]bool),
		ShardOf:   make(map[*types.Func][]string),
		ABA:       make(map[*types.Func]*ABAInfo),
		RMWBudget: make(map[*types.Func]*BudgetInfo),
		Owned:     make(map[*types.Var]*FieldInfo),
		Atomic:    make(map[*types.Var]*FieldInfo),
		Publishes: make(map[*types.Var]*PublishInfo),
		Hotline:   make(map[*types.Var]*HotlineInfo),
		Padded:    make(map[*types.Named]*PaddedInfo),
		Boundary:  make(map[string]bool),
		Funcs:     make(map[*types.Func]*FuncInfo),
		NoPublish: make(map[string]map[int]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range parseDirectives(file.Doc) {
				if d.verb == "boundary" {
					if d.reason == "" {
						a.problemf(d.pos, "//ppc:boundary needs a justification: //ppc:boundary -- reason")
					}
					a.Boundary[pkg.PkgPath] = true
				} else {
					a.problemf(d.pos, "//ppc:%s is not a package-level directive", d.verb)
				}
			}
			// Inline suppressions live in arbitrary comment groups, not
			// declaration docs; index them by file:line.
			for _, cg := range file.Comments {
				for _, d := range parseDirectives(cg) {
					if d.verb != "nopublish" {
						continue
					}
					if d.reason == "" {
						a.problemf(d.pos, "//ppc:nopublish needs a justification: //ppc:nopublish -- reason")
					}
					p := fset.Position(d.pos)
					if a.NoPublish[p.Filename] == nil {
						a.NoPublish[p.Filename] = make(map[int]bool)
					}
					a.NoPublish[p.Filename][p.Line] = true
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					a.collectFunc(pkg, n)
					return false // directives inside bodies are not declarations
				case *ast.GenDecl:
					if n.Tok != token.TYPE {
						return true
					}
					for _, spec := range n.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						doc := ts.Doc
						if doc == nil {
							doc = n.Doc // single-spec decls attach the doc to the GenDecl
						}
						a.collectType(pkg, ts, doc)
					}
					return false
				}
				return true
			})
		}
	}
	// Post-pass: a //ppc:hotline field outside a //ppc:padded struct is
	// unreachable by the layout analyzer — that is drift, not a check.
	for fv, h := range a.Hotline {
		if a.Padded[h.Owner] == nil {
			a.problemf(h.Pos, "//ppc:hotline on %s.%s requires //ppc:padded on the struct", h.Owner.Obj().Name(), fv.Name())
		}
	}
	return a
}

func (a *Annotations) collectFunc(pkg *load.Package, decl *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return
	}
	a.Funcs[obj] = &FuncInfo{Decl: decl, Pkg: pkg}
	for _, d := range parseDirectives(decl.Doc) {
		switch d.verb {
		case "hotpath":
			a.Hot[obj] = true
		case "coldpath":
			if d.reason == "" {
				a.problemf(d.pos, "//ppc:coldpath on %s needs a justification: //ppc:coldpath -- reason", obj.Name())
			}
			a.Cold[obj] = true
		case "shard":
			if d.arg == "" {
				a.problemf(d.pos, "//ppc:shard needs an owner type: //ppc:shard(Type)")
				continue
			}
			a.ShardOf[obj] = append(a.ShardOf[obj], d.arg)
		case "aba":
			if d.arg == "" {
				a.problemf(d.pos, "//ppc:aba needs the protecting generation field: //ppc:aba(tag) — use //ppc:aba(gc) when GC rules out reuse")
				continue
			}
			a.ABA[obj] = &ABAInfo{Tag: d.arg, Pos: d.pos}
		case "rmwbudget":
			n, err := strconv.Atoi(d.arg)
			if err != nil || n < 0 {
				a.problemf(d.pos, "//ppc:rmwbudget needs a count: //ppc:rmwbudget(N)")
				continue
			}
			a.RMWBudget[obj] = &BudgetInfo{N: n, Pos: d.pos}
		default:
			a.problemf(d.pos, "unknown directive //ppc:%s on %s", d.verb, obj.Name())
		}
	}
	if a.Hot[obj] && a.Cold[obj] {
		a.problemf(decl.Pos(), "%s is marked both //ppc:hotpath and //ppc:coldpath", obj.Name())
	}
	if a.RMWBudget[obj] != nil && a.Cold[obj] {
		a.problemf(decl.Pos(), "%s is marked both //ppc:rmwbudget and //ppc:coldpath: a cold function's writes belong to no budget", obj.Name())
	}
}

func (a *Annotations) collectType(pkg *load.Package, spec *ast.TypeSpec, doc *ast.CommentGroup) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		for _, d := range parseDirectives(doc) {
			a.problemf(d.pos, "//ppc:%s applies to struct types; %s is not a struct", d.verb, spec.Name.Name)
		}
		return
	}
	named, _ := pkg.Info.Defs[spec.Name].(*types.TypeName)
	if named == nil {
		return
	}
	owner, _ := named.Type().(*types.Named)
	if owner == nil {
		return
	}
	for _, d := range parseDirectives(doc) {
		switch d.verb {
		case "padded":
			a.Padded[owner] = &PaddedInfo{Owner: owner, Pkg: pkg, Pos: spec.Name.Pos()}
		default:
			a.problemf(d.pos, "unknown type directive //ppc:%s on %s", d.verb, owner.Obj().Name())
		}
	}
	for _, field := range st.Fields.List {
		dirs := parseDirectives(field.Doc)
		dirs = append(dirs, parseDirectives(field.Comment)...)
		if len(dirs) == 0 {
			continue
		}
		for _, name := range field.Names {
			fv, _ := pkg.Info.Defs[name].(*types.Var)
			if fv == nil {
				continue
			}
			info := &FieldInfo{Owner: owner, Field: fv, Pkg: pkg, Pos: name.Pos()}
			for _, d := range dirs {
				switch d.verb {
				case "shard-owned":
					a.Owned[fv] = info
				case "atomic":
					a.Atomic[fv] = info
				case "publishes":
					pi := &PublishInfo{FieldInfo: *info}
					for _, pname := range strings.Split(d.arg, ",") {
						pname = strings.TrimSpace(pname)
						if pname == "" {
							continue
						}
						if pname == fv.Name() {
							a.problemf(d.pos, "//ppc:publishes on %s.%s names itself as payload", owner.Obj().Name(), fv.Name())
							continue
						}
						sib := structFieldNamed(owner, pname)
						if sib == nil {
							a.problemf(d.pos, "//ppc:publishes on %s.%s: no sibling field %q", owner.Obj().Name(), fv.Name(), pname)
							continue
						}
						pi.Payload = append(pi.Payload, sib)
					}
					if len(pi.Payload) == 0 {
						a.problemf(d.pos, "//ppc:publishes on %s.%s needs payload fields: //ppc:publishes(f1,f2)", owner.Obj().Name(), fv.Name())
						continue
					}
					a.Publishes[fv] = pi
				case "hotline":
					group := d.arg
					if group == "" {
						group = fv.Name() // singleton group: isolated line
					}
					a.Hotline[fv] = &HotlineInfo{FieldInfo: *info, Group: group}
				default:
					a.problemf(d.pos, "unknown field directive //ppc:%s on %s.%s", d.verb, owner.Obj().Name(), fv.Name())
				}
			}
		}
		if len(field.Names) == 0 {
			a.problemf(field.Pos(), "//ppc: field directives are not supported on embedded fields")
		}
	}
}

// structFieldNamed resolves a field of owner's underlying struct by name.
func structFieldNamed(owner *types.Named, name string) *types.Var {
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

func (a *Annotations) problemf(pos token.Pos, format string, args ...any) {
	a.Problems = append(a.Problems, Diagnostic{Pos: pos, Analyzer: "ppcdirective", Message: fmt.Sprintf(format, args...)})
}

// FuncDisplayName renders a function for diagnostics: Recv.Name or Name.
func FuncDisplayName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

// ChainString renders a call chain from a root for diagnostics:
// Root -> callee -> callee.
func ChainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, f := range chain {
		parts[i] = FuncDisplayName(f)
	}
	return strings.Join(parts, " -> ")
}

// SortDiagnostics orders diagnostics by position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Message < ds[j].Message
	})
}
