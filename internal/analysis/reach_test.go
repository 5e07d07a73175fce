package analysis

// The reachability gate: every exported package-level func, type and
// method under internal/ must be reachable from a main under cmd/,
// examples/ or bench/cmd/, or be listed in testdata/reach-keep.txt with one
// of three admissible reasons. What nothing runs is deleted, not kept "in
// case": a long-lived code base pays for every line it maintains, and the
// lines no binary executes are the ones no e2e, benchmark or chaos suite
// ever checks.
//
// The pass is type-based and deliberately coarse. Nodes are package-level
// declarations (keyed by import path and name, because every package is
// typechecked from source against its dependencies' export data, so one
// object has several identities); an edge runs from a declaration to every
// package-level object its syntax names (types.Info.Uses). Roots are the
// main and init functions and the package-level initialisers of the main
// packages, plus the init functions and `var _ = …` registrations of every
// package a main links. A method is reached when something names it, or
// when its receiver type is reached and its name is one an interface in
// the tree (or one of the usual standard-library ones) declares — dynamic
// dispatch is not resolved more finely than that.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadModule typechecks the whole module once for the tests that audit it.
var loadModule = sync.OnceValues(func() (loaded, error) {
	fset, pkgs, err := Load("../..", "./...")
	return loaded{fset, pkgs}, err
})

type loaded struct {
	fset *token.FileSet
	pkgs []*Package
}

const modulePrefix = "daspos/"

// stdlibInterfaceMethods are the method names the standard library calls
// through an interface or by reflection on values this tree hands it.
var stdlibInterfaceMethods = strings.Fields(`
	Error Unwrap Is As Timeout Temporary String GoString Format
	Read Write Close Seek ReadAt WriteAt ReadFrom WriteTo ReadByte WriteByte Flush
	MarshalJSON UnmarshalJSON MarshalText UnmarshalText MarshalBinary UnmarshalBinary
	Len Less Swap Push Pop ServeHTTP RoundTrip Header WriteHeader Set
	Deadline Done Err Value Sum Reset Size BlockSize Int63 Uint64 Seed`)

// objKey names a package-level object, or a method of a package-level
// named type, of this module; anything else (locals, fields, the standard
// library) has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", modulePrefix) {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// reachGraph is the declaration graph of the loaded packages.
type reachGraph struct {
	uses       map[string][]string       // declaration → the declarations its syntax names
	methods    map[string][]string       // named type → its declared methods
	reported   map[string]token.Position // exported funcs, types and methods under internal/
	pkgRoots   map[string][]string       // package → init funcs and `var _ =` initialisers
	mainRoots  []string                  // everything declared in a main package
	imports    map[string][]string       // package → module packages it imports
	mains      []string
	ifaceNames map[string]bool
}

func isMainRoot(pkgPath string) bool {
	for _, dir := range []string{"cmd/", "examples/", "bench/cmd/"} {
		if strings.HasPrefix(pkgPath, modulePrefix+dir) {
			return true
		}
	}
	return false
}

func buildReachGraph(l loaded) *reachGraph {
	g := &reachGraph{
		uses:       make(map[string][]string),
		methods:    make(map[string][]string),
		reported:   make(map[string]token.Position),
		pkgRoots:   make(map[string][]string),
		imports:    make(map[string][]string),
		ifaceNames: make(map[string]bool),
	}
	for _, m := range stdlibInterfaceMethods {
		g.ifaceNames[m] = true
	}
	for _, pkg := range l.pkgs {
		isMain := pkg.Types.Name() == "main" && isMainRoot(pkg.Path)
		if isMain {
			g.mains = append(g.mains, pkg.Path)
		}
		audited := strings.HasPrefix(pkg.Path, modulePrefix+"internal/")
		anon := 0
		// declare records one declaration: its key, whether the gate
		// reports it when unreached, and the objects its syntax names.
		declare := func(key string, name *ast.Ident, report bool, decl ast.Node) {
			if name.Name == "_" || name.Name == "init" {
				anon++
				key = fmt.Sprintf("%s.%s#%d", pkg.Path, name.Name, anon)
				g.pkgRoots[pkg.Path] = append(g.pkgRoots[pkg.Path], key)
			}
			if isMain {
				g.mainRoots = append(g.mainRoots, key)
			}
			if report && audited && name.IsExported() {
				g.reported[key] = l.fset.Position(name.Pos())
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if used := objKey(pkg.Info.Uses[id]); used != "" && used != key {
						g.uses[key] = append(g.uses[key], used)
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(p, modulePrefix) {
					g.imports[pkg.Path] = append(g.imports[pkg.Path], p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							g.ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := objKey(pkg.Info.Defs[d.Name])
					if d.Recv != nil {
						if key == "" {
							continue
						}
						typ := key[:strings.LastIndex(key, ".")]
						g.methods[typ] = append(g.methods[typ], key)
					}
					declare(key, d.Name, true, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(objKey(pkg.Info.Defs[spec.Name]), spec.Name, true, spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								declare(objKey(pkg.Info.Defs[name]), name, false, spec)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// linked returns the module packages the mains import, transitively.
func (g *reachGraph) linked() map[string]bool {
	seen := make(map[string]bool)
	var visit func(string)
	visit = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range g.imports[p] {
			visit(q)
		}
	}
	for _, m := range g.mains {
		visit(m)
	}
	return seen
}

// reach marks everything reachable from the mains and the extra roots.
func (g *reachGraph) reach(extra []string) map[string]bool {
	reached := make(map[string]bool)
	var work []string
	mark := func(key string) {
		if !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	for _, key := range g.mainRoots {
		mark(key)
	}
	for p := range g.linked() {
		for _, key := range g.pkgRoots[p] {
			mark(key)
		}
	}
	for _, key := range extra {
		mark(key)
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, used := range g.uses[key] {
			mark(used)
		}
		// A reached type answers every interface its method names could
		// satisfy; a reached method reaches its receiver through uses.
		for _, m := range g.methods[key] {
			if g.ifaceNames[m[strings.LastIndex(m, ".")+1:]] {
				mark(m)
			}
		}
	}
	return reached
}

// shortName renders a key as the keep-list spells it: pkg.Name or
// pkg.Type.Method, with the package's last path element.
func shortName(key string) string { return path.Base(key) }

// keepEntry is one line of testdata/reach-keep.txt.
type keepEntry struct {
	line    int
	pattern string // pkg.Name, pkg.Type.Method, or either with a trailing .*
	reason  byte   // 'a', 'b' or 'c'
	matched bool
}

func (e *keepEntry) matches(name string) bool {
	if prefix, ok := strings.CutSuffix(e.pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == e.pattern
}

// readKeepList parses `pkg.Name — (a|b|c) reason` lines; blank lines and
// lines starting with # are skipped.
func readKeepList(t *testing.T, file string) []*keepEntry {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []*keepEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, reason, ok := strings.Cut(line, " — ")
		if !ok {
			t.Errorf("%s:%d: want `pkg.Name — (a|b|c) reason`, got %q", file, n, line)
			continue
		}
		if len(reason) < 4 || reason[0] != '(' || !strings.Contains("abc", reason[1:2]) || reason[2] != ')' {
			t.Errorf("%s:%d: %s: the reason must start with (a), (b) or (c) — see the file's header", file, n, pattern)
			continue
		}
		entries = append(entries, &keepEntry{line: n, pattern: pattern, reason: reason[1]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// testUsers typechecks every loaded package's _test.go files (in-package
// tests together with the package, external ones against its export data)
// and returns, per declaration, the directories whose tests name it. Reason
// (a) is checked against this rather than taken on trust. Type errors are
// ignored: `go vet` owns them, and a test that does not compile names
// nothing.
func testUsers(l loaded) (map[string]map[string]bool, error) {
	_, exports, err := goList("../..", []string{"./..."})
	if err != nil {
		return nil, err
	}
	imp := exportImporter(l.fset, exports)
	users := make(map[string]map[string]bool)
	for _, pkg := range l.pkgs {
		names, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		byPackage := make(map[string][]*ast.File)
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, name, nil, 0)
			if err != nil {
				return nil, err
			}
			byPackage[f.Name.Name] = append(byPackage[f.Name.Name], f)
		}
		for name, tests := range byPackage {
			files, path := tests, pkg.Path+"_test"
			if name == pkg.Types.Name() {
				files, path = append(append([]*ast.File(nil), pkg.Files...), tests...), pkg.Path
			}
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
			conf := types.Config{Importer: imp, Error: func(error) {}}
			_, _ = conf.Check(path, l.fset, files, info)
			for _, f := range tests {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := objKey(info.Uses[id]); key != "" {
							if users[key] == nil {
								users[key] = make(map[string]bool)
							}
							users[key][pkg.Dir] = true
						}
					}
					return true
				})
			}
		}
	}
	return users, nil
}

// TestInternalExportsAreReached is the gate described at the top of this
// file. It fails with the name of every exported internal/ declaration no
// main reaches and no keep-list entry covers, with every (a) entry no test
// outside the declaration's package bears out, and with every keep-list
// entry that no longer keeps anything.
func TestInternalExportsAreReached(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	g := buildReachGraph(l)
	if len(g.mains) == 0 {
		t.Fatal("no main package under cmd/, examples/ or bench/cmd/ was loaded")
	}
	users, err := testUsers(l)
	if err != nil {
		t.Fatal(err)
	}

	const keepFile = "testdata/reach-keep.txt"
	keep := readKeepList(t, keepFile)
	fromMains := g.reach(nil)
	var kept []string                      // what the keep-list roots: it runs in some test, so what it calls is kept with it
	claimed := make(map[string]*keepEntry) // (a) entries by the declarations they cover
	for key, pos := range g.reported {
		if fromMains[key] {
			continue
		}
		for _, e := range keep {
			if !e.matches(shortName(key)) {
				continue
			}
			e.matched = true
			if e.reason != 'a' {
				kept = append(kept, key)
				continue
			}
			claimed[key] = e
			for dir := range users[key] {
				if dir != filepath.Dir(pos.Filename) {
					kept = append(kept, key)
					break
				}
			}
		}
	}
	for _, e := range keep {
		if !e.matched {
			t.Errorf("%s:%d: stale entry %s: nothing it names is both declared and unreached", keepFile, e.line, e.pattern)
		}
	}

	reached := g.reach(kept)
	var dead []string
	unreachedByMains := 0
	for key := range g.reported {
		if !fromMains[key] {
			unreachedByMains++
		}
		if !reached[key] {
			dead = append(dead, key)
		}
	}
	t.Logf("%d exported internal/ declarations: %d reached from the %d mains, %d kept by %d keep-list entries",
		len(g.reported), len(g.reported)-unreachedByMains, len(g.mains), unreachedByMains-len(dead), len(keep))
	sort.Strings(dead)
	for _, key := range dead {
		pos := g.reported[key]
		if e := claimed[key]; e != nil {
			t.Errorf("%s:%d: %s is kept by %s:%d (%s) for reason (a), but no test outside its package names it or anything that reaches it: delete it with its tests", pos.Filename, pos.Line, shortName(key), keepFile, e.line, e.pattern)
			continue
		}
		t.Errorf("%s:%d: %s is exported but no main under cmd/, examples/ or bench/cmd/ reaches it: delete it with its tests, or list it in %s", pos.Filename, pos.Line, shortName(key), keepFile)
	}

	// The fault injectors are test support: no binary links them.
	for p := range g.linked() {
		for _, q := range g.imports[p] {
			if q == modulePrefix+"internal/faults" {
				t.Errorf("%s imports internal/faults and a main links it: the injectors are for tests only", p)
			}
		}
	}
}
