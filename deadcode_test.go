package copack

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// deadAllowed lists the findings TestNoDeadCode accepts, each with the reason
// it stays. A key is a finding's package path and name, or a package path
// alone, which covers every finding in that package. An entry that matches no
// finding fails the test, so the list cannot outlive what it excuses.
var deadAllowed = map[string]string{
	// The paper's fixtures and the generator's test entry points.
	"copack/internal/gen.Fig5DFAOrder":  "Fig 5's DFA order: route's Fig 5 tests, exchange's TestSectionDataEq2, assign's TestDFAReproducesFig12",
	"copack/internal/gen.Fig5IFAOrder":  "Fig 5's IFA order: route's Fig 5 tests, assign's TestIFAReproducesFig10",
	"copack/internal/gen.Fig13DFAOrder": "Fig 13's DFA order: route's TestFig13Densities",
	"copack/internal/gen.Fig13IFAOrder": "Fig 13's IFA order: route's TestFig13Densities, assign's TestIFAReproducesFig13A",
	"copack/internal/gen.MustBuild":     "builds the instances of most packages' tests and of the root benchmarks",
	"copack/internal/gen.Large":         "the large tier: exchange's TestLargeNDeterministicAcrossWorkers, root BenchmarkLargeTier",
	"copack/internal/gen.Names":         "prints orders as net names in assign's Fig 10/12/13 failure messages",
	"copack/internal/gen.Options.Rows":  "3-line instances small enough for the oracle: optimal's TestDFAOptimalityGap, route's TestQuickViaImprovementLegal",
	"copack/internal/optimal":           "the exhaustive oracle: root TestPipelineNeverBeatsOracle, assign's TestMCMFMatchesOracle and TestMCMFBlendUpperBound",

	// Failure injection and test inspection aids.
	"copack/internal/faultinject.Arm":           "arms the faults of the root, anneal, power, exchange and fleet failure-path tests",
	"copack/internal/faultinject.Reset":         "disarms them after each of those tests",
	"copack/internal/bga.Row.Occupied":          "route's checkStatsInvariants, design's TestParseMinimal, gen's fixture tests",
	"copack/internal/bga.Quadrant.Nets":         "the ball order route's and svgplot's tests fill quadrants with",
	"copack/internal/core.Assignment.SlotOf":    "exchange's TestRunRejectsIllegalInitial, drc's TestCheckFlagsIllegalAssignment",
	"copack/internal/power.Solution.WorstNode":  "floorplan's TestApplyTo finds the hot spot with it",
	"copack/internal/route.MaxCornerCongestion": "root BenchmarkAblationDFACut, route's TestDFACutCornerDirection",
	"copack/internal/geom.Polyline.Bounds":      "route's crossingCount, the crossing check of its realization tests",
	"copack/internal/geom.Polyline.Segments":    "route's crossingCount",
	"copack/internal/geom.Rect.Intersects":      "route's crossingCount",
	"copack/internal/geom.Seg.CrossesProperly":  "route's crossingCount",

	// Fields only tests read.
	"copack/internal/exp.policyCell.rule": "the rule run behind a policy cell: TestRestartPolicySweep's digest folds it in",

	// Terminal event types: the service emits EventType(state), and
	// service's sweep event tests and fleet's TestSweepGoldenAcrossFleetShapes
	// match on these names.
	"copack/internal/service.EventDone":     "terminal event type, see above",
	"copack/internal/service.EventFailed":   "terminal event type, see above",
	"copack/internal/service.EventCanceled": "terminal event type, see above",

	// Eq 3's weights and the ablation switches: no program sets them, but
	// EXPERIMENTS "Ablations" and the goldens measure them.
	"copack/internal/exchange.Options.Lambda":                 "Eq 3's λ: the c3_t2_weights golden, TestWeightsSteerTheSearch",
	"copack/internal/exchange.Options.Rho":                    "Eq 3's ρ: root BenchmarkAblationWeights, the goldens",
	"copack/internal/exchange.Options.Phi":                    "Eq 3's φ: root BenchmarkAblationWeights, the goldens",
	"copack/internal/exchange.Options.Schedule":               "short schedules for the root and exchange tests, BenchmarkLargeTier",
	"copack/internal/exchange.Options.DisableRangeConstraint": "root BenchmarkAblationExchange, TestDisableRangeConstraintAblation",
	"copack/internal/exchange.Options.TopLineOnly":            "root BenchmarkAblationExchange, TestTopLineOnlyLetsDensityMigrate",
}

// settingsStructs are the program's options and config structs. Some non-test
// file outside the declaring package must set each of their exported fields.
var settingsStructs = []string{
	"copack.Options",
	"copack/internal/exchange.Options",
	"copack/internal/power.SolveOptions",
	"copack/internal/power.GridSpec",
	"copack/internal/gen.Options",
	"copack/internal/service.Config",
	"copack/internal/fleet.Config",
	"copack/internal/sweep.Config",
}

// TestNoDeadCode type-checks the module, bench/ and examples/ from source and
// fails on (a) a non-test function, method, constant or type in internal/ or
// cmd/, or unexported in the root package, that no non-test file references,
// (b) an unexported field of a struct type declared there that no non-test
// file reads, and (c) an exported field of a settings struct that no non-test
// file outside its package sets. bench/ and examples/ count as callers only.
func TestNoDeadCode(t *testing.T) {
	if raceEnabled {
		t.Skip("static check; about 6× slower instrumented, and CI runs it without -race")
	}
	start := time.Now()
	found, err := findDeadCode(deadModule{"copack", "."}, []deadModule{{"copack/bench", "bench"}}, settingsStructs)
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, f := range found {
		switch key := f.pkg + "." + f.name; {
		case deadAllowed[key] != "":
			matched[key] = true
		case deadAllowed[f.pkg] != "":
			matched[f.pkg] = true
		default:
			t.Errorf("%s: no non-test file %s it; delete it, move it into a _test.go file, or allowlist it", f, f.verb())
		}
	}
	for key := range deadAllowed {
		if !matched[key] {
			t.Errorf("deadAllowed[%q] matches no finding; remove the entry", key)
		}
	}
	t.Logf("%d findings (%d allowlist entries) in %v", len(found), len(deadAllowed), time.Since(start).Round(10*time.Millisecond))
}

// TestDeadCodeFindsPlanted runs the checker on the planted module in
// testdata/deadcode. Of its cases only an unreferenced function, an
// unreferenced method, an unexported field that is assigned but never read
// and a field that only its own package's defaults set are dead. The others each exercise one exemption: a method reached through
// a program interface, one through fmt.Stringer, an Unwrap reached through
// errors.Is, a generic method called on an instantiation, and a field set
// from another package. A method that shares an interface method's name but
// not its signature stays dead.
func TestDeadCodeFindsPlanted(t *testing.T) {
	if raceEnabled {
		t.Skip("static check; CI runs it without -race")
	}
	found, err := findDeadCode(deadModule{"deadcode", filepath.Join("testdata", "deadcode")}, nil,
		[]string{"deadcode/internal/lib.Options"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.String())
	}
	want := []string{
		"field deadcode/internal/lib.Options.Local",
		"func deadcode/internal/lib.Orphan",
		"method deadcode/internal/lib.Box.Name",
		"unread field deadcode/internal/lib.tally.hits",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadModule is a Go module on disk: its module path and its directory.
type deadModule struct{ path, dir string }

// deadFinding is one declaration the checker judges dead.
type deadFinding struct{ kind, pkg, name string }

func (f deadFinding) String() string { return f.kind + " " + f.pkg + "." + f.name }

func (f deadFinding) verb() string {
	switch f.kind {
	case "field":
		return "outside its package sets"
	case "unread field":
		return "reads"
	}
	return "references"
}

// findDeadCode type-checks every package of mod and of callers, and returns
// the dead declarations of mod, sorted. It judges the packages under mod's
// internal/ and cmd/ whole, and mod's root package by its unexported names;
// the other packages, and every package of callers, only reference. settings
// names structs as "pkgpath.Type"; each exported field must be set outside
// the declaring package.
func findDeadCode(mod deadModule, callers []deadModule, settings []string) ([]deadFinding, error) {
	l := &deadLoader{
		fset: token.NewFileSet(),
		mods: append([]deadModule{mod}, callers...),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	// Type-check the standard library's pure-Go files: with cgo on, the
	// source importer runs cgo for net, which needs a C compiler.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	for _, m := range l.mods {
		paths, err := m.packages()
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			if _, err := l.Import(p); err != nil {
				return nil, err
			}
		}
	}

	// Collect the judged declarations with the span each occupies, so a
	// declaration's references to itself (recursion, a self-typed field)
	// do not count as uses.
	type span struct{ pos, end token.Pos }
	judged := map[types.Object]span{}
	recvIdents := map[*ast.Ident]bool{}
	fields := map[*types.Var]deadFinding{} // the judged unexported struct fields
	for path, files := range l.files {
		whole := strings.HasPrefix(path, mod.path+"/internal/") || strings.HasPrefix(path, mod.path+"/cmd/")
		if !whole && path != mod.path {
			continue
		}
		judge := func(id *ast.Ident, recv string, s span) {
			if id.Name == "_" || (!whole && id.IsExported() && (recv == "" || ast.IsExported(recv))) {
				return
			}
			if obj := l.info.Defs[id]; obj != nil {
				judged[obj] = s
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name != "main" && d.Name.Name != "init" {
							judge(d.Name, "", span{d.Pos(), d.End()})
						}
						continue
					}
					recv := recvTypeIdent(d.Recv.List[0].Type)
					recvIdents[recv] = true
					judge(d.Name, recv.Name, span{d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							judge(s.Name, "", span{s.Pos(), s.End()})
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, fl := range st.Fields.List {
									for _, id := range fl.Names {
										if v, ok := l.info.Defs[id].(*types.Var); ok && !id.IsExported() && id.Name != "_" {
											fields[v] = deadFinding{"unread field", path, s.Name.Name + "." + id.Name}
										}
									}
								}
							}
						case *ast.ValueSpec:
							if d.Tok == token.CONST {
								for _, id := range s.Names {
									judge(id, "", span{s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if s, ok := judged[obj]; ok && (recvIdents[id] || (id.Pos() >= s.pos && id.Pos() < s.end)) {
			continue
		}
		used[obj] = true
	}

	ifaces := l.interfaces()
	var found []deadFinding
	for obj := range judged {
		if used[obj] {
			continue
		}
		f := deadFinding{pkg: obj.Pkg().Path(), name: obj.Name()}
		switch obj := obj.(type) {
		case *types.Func:
			f.kind = "func"
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				named := derefNamed(recv.Type())
				if satisfiesInterface(named, obj.Name(), ifaces) {
					continue
				}
				f.kind, f.name = "method", named.Obj().Name()+"."+obj.Name()
			}
		case *types.Const:
			f.kind = "const"
		case *types.TypeName:
			f.kind = "type"
		}
		found = append(found, f)
	}

	for v := range l.readFields() {
		delete(fields, v)
	}
	for _, f := range fields {
		found = append(found, f)
	}

	unset, err := l.unsetFields(settings)
	if err != nil {
		return nil, err
	}
	found = append(found, unset...)
	sort.Slice(found, func(i, j int) bool { return found[i].String() < found[j].String() })
	return found, nil
}

// deadLoader type-checks the modules' packages from source into one shared
// types.Info, so an object has one identity across packages. Standard
// library imports go to the source importer.
type deadLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	mods  []deadModule
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (l *deadLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *deadLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	pkgDir, ok := l.dirOf(path)
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	files, err := parseDir(l.fset, pkgDir)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// dirOf maps an import path to its directory in the module whose path is its
// longest prefix.
func (l *deadLoader) dirOf(path string) (string, bool) {
	best := -1
	for i, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && (best < 0 || len(m.path) > len(l.mods[best].path)) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	m := l.mods[best]
	return filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path))), true
}

// interfaces indexes by method name every non-generic interface the program
// uses, every exported one of the packages it loaded, the standard library's
// included, and error.
func (l *deadLoader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, t := range errorsInterfaces() {
		add(t)
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	return byName
}

// errorsInterfaces returns the interfaces package errors asserts without
// naming them, so an error type's Unwrap, Is or As counts as reached by
// errors.Is, As and Unwrap.
func errorsInterfaces() []types.Type {
	const src = `package errors
type (
	unwrapper interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser interface{ Is(error) bool }
	aser interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var ts []types.Type
	for _, name := range pkg.Scope().Names() {
		ts = append(ts, pkg.Scope().Lookup(name).Type())
	}
	return ts
}

// readFields returns the struct fields some non-test file reads: every field
// a selector names, unless the selector is the whole left side of a plain
// assignment. A field of a generic type counts through its origin.
func (l *deadLoader) readFields() map[*types.Var]bool {
	assigned := map[*ast.SelectorExpr]bool{}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
					for _, e := range as.Lhs {
						if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
							assigned[sel] = true
						}
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for e, sel := range l.info.Selections {
		if sel.Kind() == types.FieldVal && !assigned[e] {
			read[sel.Obj().(*types.Var).Origin()] = true
		}
	}
	return read
}

// unsetFields returns the exported fields of the named settings structs that
// no file outside the declaring package sets: by a composite-literal element,
// an assignment, ++/-- or taking its address.
func (l *deadLoader) unsetFields(settings []string) ([]deadFinding, error) {
	type field struct {
		owner *types.Package
		name  string
	}
	want := map[*types.Var]field{}
	for _, s := range settings {
		dot := strings.LastIndex(s, ".")
		pkg := l.pkgs[s[:dot]]
		if pkg == nil {
			return nil, fmt.Errorf("settings struct %s: package not loaded", s)
		}
		tn, _ := pkg.Scope().Lookup(s[dot+1:]).(*types.TypeName)
		if tn == nil {
			return nil, fmt.Errorf("settings struct %s: no such type", s)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("settings struct %s: not a struct", s)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				want[f] = field{pkg, tn.Name() + "." + f.Name()}
			}
		}
	}

	set := map[*types.Var]bool{}
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			mark(e.X)
		case *ast.StarExpr:
			mark(e.X)
		case *ast.IndexExpr:
			mark(e.X)
		case *ast.SelectorExpr:
			if sel := l.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				set[sel.Obj().(*types.Var).Origin()] = true
				mark(e.X)
			}
		}
	}
	for path, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					l.markLiteral(n, set)
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						mark(e)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
		// Sets inside the declaring package, such as its defaults, do not count.
		for v, f := range want {
			if set[v] && f.owner.Path() != path {
				delete(want, v)
			}
		}
		clear(set)
	}
	var found []deadFinding
	for _, f := range want {
		found = append(found, deadFinding{"field", f.owner.Path(), f.name})
	}
	return found, nil
}

// markLiteral records the struct fields a composite literal sets.
func (l *deadLoader) markLiteral(lit *ast.CompositeLit, set map[*types.Var]bool) {
	tv, ok := l.info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			set[st.Field(i).Origin()] = true
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
}

// packages lists the import paths of the module's packages: every directory
// with a non-test Go file, skipping testdata, hidden directories and nested
// modules.
func (m deadModule) packages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != m.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if isSourceFile(p, e.Name()) {
				rel, err := filepath.Rel(m.dir, p)
				if err != nil {
					return err
				}
				paths = append(paths, strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/."))
				break
			}
		}
		return nil
	})
	return paths, err
}

// parseDir parses the non-test Go files of dir that this build would compile.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func isSourceFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// recvTypeIdent returns the identifier naming a method's receiver type.
func recvTypeIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic(fmt.Sprintf("receiver type %T", e))
		}
	}
}

// origin maps a use in an instantiated generic type or function to the
// declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// satisfiesInterface reports whether named or a pointer to it implements an
// interface with a method called method, which callers may then reach
// without naming it. Generic types are not judged this way: Implements is
// unspecified for them.
func satisfiesInterface(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
