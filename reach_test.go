package qens

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestReachability keeps internal/ free of code that no shipped program
// runs. The roots are the non-test code of cmd/, every non-test file
// of bench/ (the repository benchmark) and bench_test.go (the
// paper-figure harness). A package-level func, type, var or const,
// or a method, declared in non-test internal/ code is reached when a
// root or reached internal code refers to it. A method is also reached
// when its type is and it could be called through an interface: one
// of the standard library (error, fmt.Stringer, ...) that has a method
// of the same name and signature, or one declared in this module whose
// matching method reached code calls. Struct fields are out of scope:
// encoding/json reads them by reflection. Every unreached name must be listed, with the reason it
// stays, in testdata/unreached.txt, and every listed name must still be
// unreached, so the list can only shrink.
func TestReachability(t *testing.T) {
	allowed, err := readAllowList(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := findUnreached(".")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool, len(unreached))
	for _, name := range unreached {
		found[name] = true
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: declared in internal/ but reached by no shipped code; delete it, or list it with a reason in testdata/unreached.txt", name)
		}
	}
	var stale []string
	for name := range allowed {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: listed in testdata/unreached.txt but now reached or gone; remove the line", name)
	}
}

// TestFlagsRead keeps every command-line flag of cmd/ live. Each
// flag.<Type>(name, ...) or flag.<Type>Var(&v, name, ...) call in
// non-test cmd/ code defines a flag bound to a variable, and some use
// of that variable must come after the binary's flag.Parse call in the
// same file. A flag that stays unread is listed, with the reason, in
// testdata/unread_flags.txt as "binary/name", and a listed flag must
// still be unread. The per-binary counts are pinned so that adding or
// deleting a flag is a deliberate edit here.
func TestFlagsRead(t *testing.T) {
	allowed, err := readAllowList(filepath.Join("testdata", "unread_flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	flags, err := findFlags(".")
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, f := range flags {
		counts[f.binary]++
		key := f.binary + "/" + f.name
		_, listed := allowed[key]
		switch {
		case !f.read && !listed:
			t.Errorf("%s: flag -%s is never read after flag.Parse; delete it, or list %s with a reason in testdata/unread_flags.txt", f.binary, f.name, key)
		case f.read && listed:
			t.Errorf("%s: listed in testdata/unread_flags.txt but now read or gone; remove the line", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: listed in testdata/unread_flags.txt but no such flag is defined; remove the line", key)
	}
	want := map[string]int{"datagen": 7, "qens": 12, "qens-gateway": 19, "qens-region": 5, "qensd": 15}
	for bin := range counts {
		if _, ok := want[bin]; !ok {
			want[bin] = 0
		}
	}
	for bin, n := range want {
		if counts[bin] != n {
			t.Errorf("cmd/%s defines %d flags, want %d", bin, counts[bin], n)
		}
	}
}

// cmdFlag is one flag definition in a cmd/ binary.
type cmdFlag struct {
	binary, name string
	read         bool
}

// findFlags type-checks every cmd/ package and returns its package-level
// flag definitions, with whether each bound variable is read after
// flag.Parse.
func findFlags(root string) ([]cmdFlag, error) {
	l := newReachLoader(root)
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	var out []cmdFlag
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		p, err := l.load("qens/cmd/"+d.Name(), filepath.Join(root, "cmd", d.Name()), nil)
		if err != nil {
			return nil, err
		}
		flagFunc := func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg().Path() == "flag" {
				return fn.Name()
			}
			return ""
		}
		for _, f := range p.files {
			type def struct {
				name string
				obj  types.Object
			}
			var defs []def
			var parse token.Pos
			bound := make(map[ast.Expr]types.Object)
			bind := func(lhs, rhs []ast.Expr) {
				if len(lhs) != len(rhs) {
					return
				}
				for i, e := range rhs {
					if id, ok := lhs[i].(*ast.Ident); ok {
						bound[e] = p.info.ObjectOf(id)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					bind(lhs, n.Values)
				case *ast.AssignStmt:
					bind(n.Lhs, n.Rhs)
				case *ast.CallExpr:
					name := flagFunc(n)
					switch {
					case name == "Parse":
						parse = n.Pos()
					case name == "Var" || strings.HasSuffix(name, "Var"):
						var obj types.Object
						if u, ok := n.Args[0].(*ast.UnaryExpr); ok && u.Op == token.AND {
							if id, ok := u.X.(*ast.Ident); ok {
								obj = p.info.Uses[id]
							}
						}
						defs = append(defs, def{flagName(n.Args[1]), obj})
					case name == "Bool" || name == "Duration" || name == "Float64" || name == "Int" ||
						name == "Int64" || name == "String" || name == "Uint" || name == "Uint64":
						defs = append(defs, def{flagName(n.Args[0]), bound[n]})
					}
				}
				return true
			})
			for _, fd := range defs {
				read := false
				for id, obj := range p.info.Uses {
					if obj != nil && obj == fd.obj && parse.IsValid() && id.Pos() > parse {
						read = true
						break
					}
				}
				out = append(out, cmdFlag{binary: d.Name(), name: fd.name, read: read})
			}
		}
	}
	return out, nil
}

// flagName is a flag's name from its string-literal argument.
func flagName(e ast.Expr) string {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s
		}
	}
	return fmt.Sprintf("<%T>", e)
}

// readAllowList parses "pkg.Name reason..." lines; blank lines and
// lines starting with # are skipped.
func readAllowList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

// reachLoader type-checks the module's packages from source and the
// standard library from export data.
type reachLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

func newReachLoader(root string) *reachLoader {
	fset := token.NewFileSet()
	return &reachLoader{root: root, fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: make(map[string]*reachPkg)}
}

type reachPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "qens" && !strings.HasPrefix(path, "qens/") {
		return l.std.Import(path)
	}
	p, err := l.load(path, filepath.Join(l.root, strings.TrimPrefix(path, "qens")), nil)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load checks the package at dir: its non-test files, or names when
// given.
func (l *reachLoader) load(path, dir string, names []string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if names == nil {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		names = bp.GoFiles
	}
	p := &reachPkg{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	var err error
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadTree type-checks the non-test code of every package under
// root/top and passes each to visit with its import path.
func (l *reachLoader) loadTree(top string, visit func(path string, p *reachPkg)) error {
	return filepath.WalkDir(filepath.Join(l.root, top), func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		path := "qens/" + filepath.ToSlash(rel)
		p, err := l.load(path, dir, nil)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		visit(path, p)
		return nil
	})
}

// findUnreached returns the unreached internal/ names of the module at
// root, sorted, as pkg.Name or pkg.Type.Method.
func findUnreached(root string) ([]string, error) {
	l := newReachLoader(root)

	var roots []*reachPkg
	for _, top := range []string{"cmd", "internal"} {
		err := l.loadTree(top, func(_ string, p *reachPkg) {
			if top != "internal" {
				roots = append(roots, p)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	benchMain, err := l.load("qens/bench", filepath.Join(root, "bench"), nil)
	if err != nil {
		return nil, err
	}
	harness, err := l.load("qens", root, []string{"bench_test.go"})
	if err != nil {
		return nil, err
	}
	roots = append(roots, benchMain, harness)

	g := &reachGraph{edges: make(map[types.Object][]types.Object), called: make(map[types.Object]bool)}
	for path, p := range l.pkgs {
		if strings.HasPrefix(path, "qens/internal/") {
			g.addDecls(p)
		}
	}
	g.linkInterfaceMethods(l.pkgs)

	reached := make(map[types.Object]bool)
	var queue []types.Object
	mark := func(obj types.Object) {
		if _, ok := g.called[obj]; ok {
			g.called[obj] = true
		}
		if _, tracked := g.edges[obj]; tracked && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, p := range roots {
		for _, obj := range p.info.Uses {
			mark(origin(obj))
		}
	}
	for _, obj := range g.roots {
		mark(obj)
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, next := range g.edges[obj] {
			mark(next)
		}
		if len(queue) == 0 {
			// A module interface method reaches the methods of
			// reached types that implement it once reached code
			// calls it.
			for _, c := range g.impls {
				if g.called[c.iface] && reached[c.typ] {
					mark(c.fn)
				}
			}
		}
	}

	var out []string
	for obj := range g.edges {
		if !reached[obj] {
			out = append(out, reachName(obj))
		}
	}
	sort.Strings(out)
	return out, nil
}

// reachGraph holds one node per package-level declaration and method
// of internal/, with an edge to everything its declaration refers to.
type reachGraph struct {
	edges map[types.Object][]types.Object
	roots []types.Object // referenced by init funcs
	// called holds every method of an interface declared in this
	// module, true once reached code refers to it; impls are the
	// methods each could dispatch to.
	called map[types.Object]bool
	impls  []reachImpl
}

// reachImpl is a method fn of type typ that a call of the module
// interface method iface could dispatch to.
type reachImpl struct{ iface, typ, fn types.Object }

func (g *reachGraph) addDecls(p *reachPkg) {
	uses := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil {
					out = append(out, origin(obj))
				}
			}
			return true
		})
		return out
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					g.roots = append(g.roots, uses(d)...)
					continue
				}
				obj := p.info.Defs[d.Name]
				g.edges[obj] = append(g.edges[obj], uses(d)...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[s.Name]
						g.edges[obj] = append(g.edges[obj], uses(s)...)
					case *ast.ValueSpec:
						refs := uses(s)
						for _, name := range s.Names {
							// A blank var is a compile-time assertion:
							// it neither reaches nor needs reaching.
							if name.Name == "_" {
								continue
							}
							obj := p.info.Defs[name]
							// A const in an iota run takes its type
							// from the spec above without naming it.
							if n := namedOf(obj.Type()); n != nil {
								refs = append(refs, n.Obj())
							}
							g.edges[obj] = append(g.edges[obj], refs...)
						}
					}
				}
			}
		}
	}
}

// linkInterfaceMethods adds an edge from each type to each of its
// methods that a standard-library interface could call, and records
// as impls the methods that an interface of this module could call.
func (g *reachGraph) linkInterfaceMethods(pkgs map[string]*reachPkg) {
	byName := make(map[string][]*types.Func)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			byName[m.Name()] = append(byName[m.Name()], m)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	for obj := range g.edges {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		n := namedOf(recv.Type())
		if n == nil {
			continue
		}
		tn := n.Obj()
		var impls []reachImpl
		std := false
		for _, m := range byName[fn.Name()] {
			if !types.Identical(m.Type(), fn.Type()) {
				continue
			}
			if !inModule(m.Pkg()) {
				std = true
				break
			}
			impls = append(impls, reachImpl{m, tn, fn})
		}
		if std {
			g.edges[tn] = append(g.edges[tn], fn)
			continue
		}
		for _, c := range impls {
			g.called[c.iface] = false
			g.impls = append(g.impls, c)
		}
	}
}

// inModule reports whether pkg is this module's, not the standard
// library's (error's methods have no package).
func inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "qens" || strings.HasPrefix(pkg.Path(), "qens/"))
}

// origin maps an instantiated generic func or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

func reachName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name += namedOf(recv.Type()).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

// TestFuzzTargetsInMakefile keeps `make fuzz`, the recipe CI runs as
// campaigns, in step with the fuzz targets: every func Fuzz* in a test
// file outside bench/ must have a line in the recipe, naming its own
// package and matching no other target there, and every line must name
// a target that exists. `go test` alone runs a target's seed corpus
// only, so a target left out of the recipe is never searched.
func TestFuzzTargetsInMakefile(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := map[string]bool{}
	inFuzz := false
	for _, line := range strings.Split(string(mk), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inFuzz = strings.HasPrefix(line, "fuzz:")
			continue
		}
		f := strings.Fields(line)
		for i := 0; inFuzz && i+1 < len(f); i++ {
			if f[i] == "-fuzz" {
				pkg := strings.Trim(strings.TrimPrefix(f[len(f)-1], "./"), "/")
				recipe[pkg+" "+f[i+1]] = true
			}
		}
	}
	if len(recipe) == 0 {
		t.Fatal("Makefile has no fuzz recipe lines")
	}

	defined := map[string][]string{} // package dir -> its fuzz targets
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				dir := filepath.ToSlash(filepath.Dir(path))
				defined[dir] = append(defined[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, names := range defined {
		for _, name := range names {
			if !recipe[dir+" "+name] {
				t.Errorf("%s.%s is not in the Makefile's fuzz recipe; add `$(GO) test -run '^$$' -fuzz %s -fuzztime $(FUZZTIME) ./%s/`", dir, name, name, dir)
			}
			delete(recipe, dir+" "+name)
		}
	}
	for key := range recipe {
		t.Errorf("the Makefile's fuzz recipe names %s, which no test file outside bench/ defines", key)
	}
	// go test -fuzz takes a pattern and refuses one that matches two
	// targets of the package.
	for dir, names := range defined {
		for _, name := range names {
			for _, other := range names {
				if other != name && strings.Contains(other, name) {
					t.Errorf("./%s: -fuzz %s also matches %s; rename one", dir, name, other)
				}
			}
		}
	}
}
