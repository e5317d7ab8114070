package hurricane

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestHotPathDocsCarryAnnotations guards against annotation drift: any
// function whose doc comment claims to be a "fast path" or "hot path"
// must either carry a //ppc:hotpath or //ppc:coldpath directive (so
// ppclint actually checks the claim) or live in a package whose package
// comment declares //ppc:boundary (simulated hardware, outside the
// invariant). Prose claims that the linter cannot see rot silently;
// this test makes them load-bearing.
// hasDirective reports whether the comment group contains a line that
// starts with the given directive. CommentGroup.Text() strips directive
// comments, so the raw list must be scanned.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

type parsedFile struct {
	path string
	file *ast.File
}

// parseTree parses every non-test .go file in the repo (skipping
// tools/ and testdata/) and returns the files plus the set of
// directories whose package comment declares //ppc:boundary.
func parseTree(t *testing.T, fset *token.FileSet) ([]parsedFile, map[string]bool) {
	t.Helper()
	boundaryDirs := map[string]bool{}
	var files []parsedFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || path == "tools" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		if hasDirective(f.Doc, "//ppc:boundary") {
			boundaryDirs[filepath.Dir(path)] = true
		}
		files = append(files, parsedFile{path: path, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, boundaryDirs
}

func TestHotPathDocsCarryAnnotations(t *testing.T) {
	fset := token.NewFileSet()
	files, boundaryDirs := parseTree(t, fset)

	for _, pf := range files {
		if boundaryDirs[filepath.Dir(pf.path)] {
			continue
		}
		for _, decl := range pf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Doc != nil {
				lower := strings.ToLower(fn.Doc.Text())
				if !strings.Contains(lower, "fast path") && !strings.Contains(lower, "hot path") {
					continue
				}
				if hasDirective(fn.Doc, "//ppc:hotpath") || hasDirective(fn.Doc, "//ppc:coldpath") {
					continue
				}
				pos := fset.Position(fn.Pos())
				t.Errorf("%s:%d: %s's doc comment claims a fast/hot path but carries no //ppc:hotpath or //ppc:coldpath directive; annotate it so ppclint enforces the claim (see docs/INVARIANTS.md)",
					pos.Filename, pos.Line, fn.Name.Name)
			}
		}
	}
	if len(boundaryDirs) == 0 {
		t.Error("no //ppc:boundary package comments found; expected at least internal/machine")
	}
}

// fieldDoc returns the comment group attached to a struct field —
// preferring the doc block above it, falling back to the line comment.
func fieldDoc(f *ast.Field) *ast.CommentGroup {
	if f.Doc != nil {
		return f.Doc
	}
	return f.Comment
}

// TestPaddedStructsCarryAnnotations guards the layout directives
// against drift: a struct that pays for cache-line isolation with a
// blank [N]byte pad field is making a layout claim, and must carry
// //ppc:padded so ppclint's layout analyzer verifies the claim from
// real field offsets instead of trusting hand-counted pads.
func TestPaddedStructsCarryAnnotations(t *testing.T) {
	fset := token.NewFileSet()
	files, boundaryDirs := parseTree(t, fset)

	isBytePad := func(f *ast.Field) bool {
		if len(f.Names) != 1 || f.Names[0].Name != "_" {
			return false
		}
		arr, ok := f.Type.(*ast.ArrayType)
		if !ok || arr.Len == nil {
			return false
		}
		id, ok := arr.Elt.(*ast.Ident)
		return ok && id.Name == "byte"
	}

	for _, pf := range files {
		if boundaryDirs[filepath.Dir(pf.path)] {
			continue
		}
		for _, decl := range pf.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				padded := false
				for _, f := range st.Fields.List {
					if isBytePad(f) {
						padded = true
						break
					}
				}
				if !padded {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if hasDirective(doc, "//ppc:padded") {
					continue
				}
				pos := fset.Position(ts.Pos())
				t.Errorf("%s:%d: struct %s declares blank [N]byte padding but carries no //ppc:padded directive; annotate it so ppclint verifies the layout (see docs/INVARIANTS.md)",
					pos.Filename, pos.Line, ts.Name.Name)
			}
		}
	}
}

// TestPublishWordsCarryAnnotations guards the ordering directives: a
// field whose doc comment calls it a "publish word", a "publish edge"
// or a "release edge" is claiming release/acquire pairing, and must
// carry //ppc:publishes naming the payload so ppclint's ordering
// analyzer checks every store and load of it. Channel fields are the
// one exemption (dlExec.wake): a send/receive pair is a language-level
// edge with no store or load for the analyzer to pair, and the
// directive on a channel would be a dangling one.
func TestPublishWordsCarryAnnotations(t *testing.T) {
	fset := token.NewFileSet()
	files, boundaryDirs := parseTree(t, fset)

	for _, pf := range files {
		if boundaryDirs[filepath.Dir(pf.path)] {
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				doc := fieldDoc(f)
				if doc == nil {
					continue
				}
				lower := strings.ToLower(doc.Text())
				if !strings.Contains(lower, "publish word") && !strings.Contains(lower, "publish edge") &&
					!strings.Contains(lower, "release edge") {
					continue
				}
				if _, isChan := f.Type.(*ast.ChanType); isChan {
					if hasDirective(doc, "//ppc:publishes") {
						pos := fset.Position(f.Pos())
						t.Errorf("%s:%d: channel field %s carries //ppc:publishes; the directive pairs atomic stores and loads, a channel's edge needs none",
							pos.Filename, pos.Line, f.Names[0].Name)
					}
					continue
				}
				if hasDirective(doc, "//ppc:publishes") {
					continue
				}
				pos := fset.Position(f.Pos())
				name := "_"
				if len(f.Names) > 0 {
					name = f.Names[0].Name
				}
				t.Errorf("%s:%d: field %s's doc comment calls it a publish word but carries no //ppc:publishes directive; declare the payload so ppclint checks the release/acquire pairing (see docs/INVARIANTS.md)",
					pos.Filename, pos.Line, name)
			}
			return true
		})
	}
}

// TestABALoopsCarryAnnotations guards the CAS-protocol directives: a
// function whose doc comment discusses ABA and whose body contains a
// CAS retry loop must carry //ppc:aba naming what defeats reuse, so
// the protection claim is visible to ppclint's casloop analyzer
// instead of living only in prose.
func TestABALoopsCarryAnnotations(t *testing.T) {
	fset := token.NewFileSet()
	files, boundaryDirs := parseTree(t, fset)

	hasCASLoop := func(fn *ast.FuncDecl) bool {
		found := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || found {
				return !found
			}
			ast.Inspect(loop.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
						strings.HasPrefix(sel.Sel.Name, "CompareAndSwap") {
						found = true
					}
				}
				return !found
			})
			return !found
		})
		return found
	}

	for _, pf := range files {
		if boundaryDirs[filepath.Dir(pf.path)] {
			continue
		}
		for _, decl := range pf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			if !strings.Contains(strings.ToLower(fn.Doc.Text()), "aba") {
				continue
			}
			if !hasCASLoop(fn) {
				continue
			}
			if hasDirective(fn.Doc, "//ppc:aba") {
				continue
			}
			pos := fset.Position(fn.Pos())
			t.Errorf("%s:%d: %s's doc comment discusses ABA and its body retries a CAS, but it carries no //ppc:aba directive; name the protecting mechanism so ppclint checks it (see docs/INVARIANTS.md)",
				pos.Filename, pos.Line, fn.Name.Name)
		}
	}
}

// rt surface ceilings, recorded at PR 24 (a death is settled where it is
// declared). ROADMAP item 2 wants these to go down: lower them when a
// change shrinks rt, and treat raising one as a decision to defend in
// review.
const (
	rtMaxNonTestLines = 6945
	rtMaxExported     = 203
	rtMaxOptionFields = 8
)

// TestRtSurfaceRatchet holds package rt to the size it has reached: the
// non-test line count, the exported surface — package-level names,
// methods of exported types, fields of exported structs — and the number
// of Options fields may shrink but not grow past the recorded ceilings.
// It also pins the facts that make every call one path. Asynchronous
// submission: exactly one function pushes onto an async ring, and exactly
// one performs the asynchronous admission increment. The call record:
// each leg of a call is written in one function — the table read
// (shard.resolve), the health gate (gateAdmit) and the synchronous
// admission (Service.admit) have one caller each, a carried probe is
// settled from at most three, the pooled call is the entry and the core
// between a pop and a push, and the deadline request is the record plus
// its generation and its caller's program. The shard tick: exactly one
// function starts its loop. Ownership: a held descriptor changes hands by
// exchange on the record's slot — Hold alone fills it, and Release,
// dropDeadHold and reap alone take a descriptor out — a death is declared
// from Abandon, cleanupClient and livenessTick and nowhere else, and the
// ownership word, the registry's walk list and the deferred reap are gone
// by name. The deadline executor: one function starts its goroutine, no
// client-side struct has a field for one, and owner.go names neither the
// executor nor its ticket. Close and Kill: no call path
// announces itself to either — the submitting window, the close epoch and
// the quiescence notification are gone by name, one function (shard.close)
// sets a ring's closed bit, shard.submit defers nothing, and a completion
// is one atomic write and no call.
func TestRtSurfaceRatchet(t *testing.T) {
	fset := token.NewFileSet()
	files, _ := parseTree(t, fset)
	var lines, exported, optionFields int
	callers := map[string]map[string]bool{} // method or function name -> the functions that call it
	names := func(set map[string]bool) []string {
		var fns []string
		for fn := range set {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		return fns
	}
	calls := func(callee string) []string { return names(callers[callee]) }
	admitters := map[string]bool{}
	cdFillers, cdTakers := map[string]bool{}, map[string]bool{}
	ringClosers := map[string]bool{}
	var dlReqFields, ownerNames []string
	for _, pf := range files {
		if filepath.Dir(pf.path) != "rt" {
			continue
		}
		f := pf.file
		lines += fset.File(f.Pos()).LineCount()
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if filepath.Base(pf.path) == "owner.go" && (id.Name == "dlExec" || id.Name == "dlTicket") {
				ownerNames = append(ownerNames, id.Name)
			}
			switch id.Name {
			case "submitting", "closeEpoch", "heldEpoch", "quiesce", "notifyQuiesce":
				t.Errorf("%s: identifier %s is back: no call path announces itself to Close or Kill", fset.Position(id.Pos()), id.Name)
			case "packOwner", "owHeld", "unfile", "reapNow", "declareDead", "scavengeTick", "crReaped":
				t.Errorf("%s: identifier %s is back: a holding changes hands on its slot, and whoever declares a death settles it", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || recvExported(d.Recv)) {
					exported++
				}
				if name := d.Name.Name; (name == "complete" || name == "completeAsync") && d.Recv != nil &&
					fmt.Sprint(d.Recv.List[0].Type.(*ast.StarExpr).X) == "Service" {
					// One statement, one call in it, and that call is the counter's Add.
					var inner []string
					ast.Inspect(d.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							inner = append(inner, types.ExprString(call.Fun))
						}
						return true
					})
					if len(d.Body.List) != 1 || len(inner) != 1 || !strings.HasSuffix(inner[0], ".Add") {
						t.Errorf("%s is %d statements calling %v; a completion is its one counter Add and nothing else", name, len(d.Body.List), inner)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if _, ok := n.(*ast.DeferStmt); ok && d.Name.Name == "submit" {
						t.Errorf("shard.submit defers again: a submission opens nothing it has to close")
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if callers[sel.Sel.Name] == nil {
						callers[sel.Sel.Name] = map[string]bool{}
					}
					callers[sel.Sel.Name][d.Name.Name] = true
					on, ok := sel.X.(*ast.SelectorExpr)
					if ok && on.Sel.Name == "asyncAdm" && sel.Sel.Name == "Add" {
						if _, undo := call.Args[0].(*ast.UnaryExpr); !undo {
							admitters[d.Name.Name] = true
						}
					}
					if ok && on.Sel.Name == "cd" {
						switch sel.Sel.Name {
						case "Store":
							cdFillers[d.Name.Name] = true
						case "Swap", "CompareAndSwap":
							cdTakers[d.Name.Name] = true
						}
					}
					if ok && on.Sel.Name == "enq" && sel.Sel.Name == "Or" {
						ringClosers[d.Name.Name] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								exported++
							}
						}
					case *ast.TypeSpec:
						st, isStruct := s.Type.(*ast.StructType)
						for _, field := range fieldsOf(st) {
							if s.Name.Name == "dlReq" {
								dlReqFields = append(dlReqFields, field)
							}
							if (s.Name.Name == "Client" || s.Name.Name == "clientRec") && field == "dl" {
								t.Errorf("%s has a dl field again: a client holds nothing for the deadline path", s.Name.Name)
							}
							if s.Name.Name == "callDesc" && field == "owner" {
								t.Errorf("callDesc has an owner field again: who holds a descriptor is its holder's record's business")
							}
						}
						if !s.Name.IsExported() {
							continue
						}
						exported++
						if !isStruct {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									exported++
									if s.Name.Name == "Options" {
										optionFields++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, c := range []struct {
		what      string
		got, ceil int
	}{
		{"non-test lines", lines, rtMaxNonTestLines},
		{"exported identifiers", exported, rtMaxExported},
		{"Options fields", optionFields, rtMaxOptionFields},
	} {
		if c.got > c.ceil {
			t.Errorf("rt has %d %s, ceiling %d: the subtraction pass (ROADMAP item 2) only goes one way", c.got, c.what, c.ceil)
		}
	}
	t.Logf("rt: %d non-test lines, %d exported identifiers, %d Options fields", lines, exported, optionFields)
	for _, c := range []struct{ callee, want, what string }{
		{"push", "submit", "pushing onto an async ring"},
		{"resolve", "enter", "reading the service-table replica on a call path"},
		{"gateAdmit", "enter", "passing the health gate"},
		{"admit", "begin", "performing the synchronous admission"},
		{"watchdogLoop", "startTick", "starting the shard tick loop"},
		{"loop", "newExec", "starting a deadline executor's goroutine"},
	} {
		if got := calls(c.callee); len(got) != 1 || got[0] != c.want {
			t.Errorf("functions %s: %v; want %s alone", c.what, got, c.want)
		}
	}
	if len(admitters) != 1 || !admitters["async"] {
		t.Errorf("functions performing the asynchronous admission: %v; want Client.async alone", admitters)
	}
	if got := calls("settleProbe"); len(got) == 0 || len(got) > 3 {
		t.Errorf("functions settling a carried probe: %v; want one to three (the pre-dispatch exit, the post-dispatch settlement, the caller's orphan branch)", got)
	}
	for callee, fns := range callers {
		if fns["callOn"] && callee != "enter" && callee != "popCD" && callee != "callHeld" && callee != "pushCD" {
			t.Errorf("callOn calls %s; the pooled call is the entry and the core between a pop and a push, with no leg of its own", callee)
		}
	}
	if got := fmt.Sprint(dlReqFields); got != "[callRec gen prog]" {
		t.Errorf("dlReq fields: %s; want the call record plus gen and prog", got)
	}
	if len(ownerNames) != 0 {
		t.Errorf("owner.go names %v: a death does not know executors exist", ownerNames)
	}
	if got := fmt.Sprint(names(ringClosers)); got != "[close]" {
		t.Errorf("functions setting a ring's closed bit: %s; want shard.close alone", got)
	}
	if fill, take := fmt.Sprint(names(cdFillers)), fmt.Sprint(names(cdTakers)); fill != "[Hold]" || take != "[Release dropDeadHold reap]" {
		t.Errorf("functions filling clientRec.cd: %s, taking a descriptor out of it: %s; want Hold, and Release, dropDeadHold and reap — no call path touches the slot", fill, take)
	}
	if got := fmt.Sprint(calls("die")); got != "[Abandon cleanupClient livenessTick]" {
		t.Errorf("functions declaring a death: %s; want Abandon, cleanupClient and livenessTick alone", got)
	}
}

// fieldsOf lists a struct type's field names, an embedded field under its
// type's name; nil for a type that is not a struct.
func fieldsOf(st *ast.StructType) []string {
	if st == nil {
		return nil
	}
	var names []string
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			names = append(names, fmt.Sprint(field.Type))
		}
		for _, name := range field.Names {
			names = append(names, name.Name)
		}
	}
	return names
}

// recvExported reports whether a method's receiver names an exported
// type.
func recvExported(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}
