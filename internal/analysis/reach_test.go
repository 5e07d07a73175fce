package analysis

// The reachability gate: nothing under internal/ is kept that no binary
// needs. Every exported package-level func, type and method under internal/
// must be reached from a main under cmd/, examples/ or bench/cmd/; every
// struct field declared there must be read by code those mains reach;
// every flag a main defines must be set somewhere a person or a script sets
// it; and every route, query parameter and header the daemons under
// internal/ serve must be used by the same rule (wire_test.go). What fails
// is deleted, not kept "in case", or it is listed in
// testdata/reach-keep.txt with one of three admissible reasons. A
// long-lived code base pays for every line it maintains, and the lines no
// binary executes are the ones no e2e, benchmark or chaos suite ever checks.
//
// Declarations. The pass is type-based and deliberately coarse. Nodes are
// package-level declarations (keyed by import path and name, because every
// package is typechecked from source against its dependencies' export
// data, so one object has several identities); an edge runs from a
// declaration to every package-level object its syntax names
// (types.Info.Uses). Roots are the main and init functions and the
// package-level initialisers of the main packages, plus the init functions
// and `var _ = …` registrations of every package a main links.
//
// Methods. A method is reached when something names it, or when its
// receiver type is reached and the receiver's method set satisfies an
// interface that declares the method: one declared in the tree, an exported
// interface of a standard-library package the tree imports, or one of the
// interfaces the standard library asserts without naming them
// (anonymousStdlib). Methods compare by name plus the types of their
// parameters and results, never by types.Implements: the two sides usually
// come from different typechecks, and the same type from two typechecks is
// two types.
//
// Fields. A named struct field declared under internal/ is read when
// reached code names it other than as the target of a plain `=` or as the
// key of a keyed composite literal; a positional composite literal writes
// every field. Fields are keyed by package, file, line and name, since a
// field read from another package is another types.Var; a field of an
// unnamed struct type is keyed by that type instead, since identical
// unnamed struct types are one type. Reads the syntax does not show count
// too, by a conservative rule:
//   - a field that carries a struct tag is read;
//   - so is every field of every struct type that reached code passes (as
//     a value, or behind pointers, slices, arrays and maps, or nested in
//     another struct) to an `any` parameter of encoding/json, encoding/gob,
//     encoding/xml, encoding/binary, reflect, text/template or
//     html/template, or of fmt or log — except below a type fmt prints
//     through its own Error, String or Format method. A value of interface
//     or type-parameter type is followed to the callers that supply it,
//     through the parameters and type parameters it arrived by. Two sinks
//     read nothing here: json.Unmarshal and Decoder.Decode write every
//     field, and a field a handler's response encodes, if no other sink
//     reads it, travels only on the wire, where wire_test.go decides it;
//   - so is every field of a struct compared with == or !=, used as a map
//     key, or converted to another struct type.
//
// Mains. A main counts as run by a test when a _test.go file in its
// directory names a function its main calls: run, or a subcommand. README
// tells users to `go run` every main under examples/ and cmd/, so each must
// be run by a test, or the gate fails naming it: a binary that panics must
// not ship green, nor keep alive what only it reaches. The counts name the
// mains under bench/cmd/ no test runs.
//
// Flags. Every flag a main defines with package flag must be set by name
// (-name or --name) somewhere in scripts/, bench/run.sh,
// .github/workflows/, README.md or a _test.go file. A flag nothing sets is
// deleted and its default becomes a constant.
//
// The keep-list spells a declaration pkg.Name or pkg.Type.Method, a field
// pkg.Type.Field (an anonymous struct's fields follow the names that
// enclose it), and a flag cmd.-name, with cmd the main's directory.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
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

// anonymousStdlib declares the interfaces the standard library asserts on
// the values this tree hands it without naming them: the error-tree walks
// of errors.Is, errors.As and errors.Unwrap, and os.IsTimeout.
const anonymousStdlib = `package p

type (
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ interface{ Timeout() bool }
)
`

// sinkMode says how a standard-library call reads the fields of a value
// handed to it as `any`.
type sinkMode uint8

const (
	reflects sinkMode = 1 << iota // every field, through reflection
	prints                        // fmt's rules: a value with Error, String or Format prints through it
	compares                      // == and map hashing: the fields held by value
	decodes                       // json.Unmarshal and Decoder.Decode: every field is written, none read
)

// reflective are the standard-library packages whose `any` parameters read
// the fields of what they are handed.
var reflective = map[string]sinkMode{
	"encoding/json":   reflects,
	"encoding/gob":    reflects,
	"encoding/xml":    reflects,
	"encoding/binary": reflects,
	"reflect":         reflects,
	"text/template":   reflects,
	"html/template":   reflects,
	"fmt":             prints,
	"log":             prints,
}

// flagNameArg maps each flag-defining function (package func and FlagSet
// method alike) to the index of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

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

// methodSig renders a method as its name and the types of its parameters
// and results, which compare equal across separate typechecks.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return fn.Name() + types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}

// iface is one interface a method can be reached through.
type iface struct {
	name string
	sigs []string
}

type itemKind int

const (
	declItem itemKind = iota
	fieldItem
	flagItem
	routeItem
	paramItem
	headerItem
	wireFieldItem // a field of a type only a handler's response encodes (wire_test.go)
)

// itemKinds names each kind for the counts, in itemKind order.
var itemKinds = []string{"exported declarations", "fields", "flags", "routes", "parameters", "headers", "wire-only fields"}

// item is one thing the gate decides: an exported declaration, a field, a
// flag, or a piece of the HTTP surface.
type item struct {
	kind   itemKind
	name   string // as the keep-list spells it
	pos    token.Position
	tagged bool      // a field with a struct tag
	flag   string    // a flag's name; a parameter's or header's name
	recv   string    // a method's receiver type key
	wire   *wireSite // a route, parameter or header: where it is served
}

// declSyntax is one piece of a declaration's syntax and its package.
type declSyntax struct {
	pkg  *Package
	node ast.Node
}

// reachGraph is the declaration graph of the loaded packages.
type reachGraph struct {
	fset       *token.FileSet
	uses       map[string][]string         // declaration → the declarations its syntax names
	syntax     map[string][]declSyntax     // declaration → its syntax
	named      map[string]*types.Named     // type declaration → its type
	items      map[string]*item            // what the gate decides, by key
	pkgRoots   map[string][]string         // package → init funcs and `var _ =` initialisers
	mainRoots  []string                    // everything declared in a main package
	imports    map[string][]string         // package → module packages it imports
	mains      []string                    // the main packages under cmd/, examples/ and bench/cmd/
	ifaces     map[string][]*iface         // method signature → the interfaces declaring it
	ifaceNamed map[string]string           // method name → an interface declaring it, for the fix hint
	satisfied  map[string][]string         // type → its methods reached through interfaces (memo)
	stdlib     map[string]bool             // standard-library packages whose interfaces are collected
	sinks      map[string]map[int]sinkMode // function key → parameter → how its values are read
	tsinks     map[string]map[int]sinkMode // generic declaration key → type parameter → ditto
	unnamed    map[string]string           // position key of a field of an unnamed struct type → its key
	routes     []*wireRoute                // the mux registrations under internal/ (wire_test.go)
	wireUses   []wireRequest               // requests made by doc lines and by tests (wire_test.go)
	sent, read map[string][]string         // header → the directories of the tests (or "" for docs) that send it, read it
}

// fieldKey names a struct field by where it is declared, or by its struct
// type if that is unnamed (collectFields).
func (g *reachGraph) fieldKey(v *types.Var) string {
	v = v.Origin()
	pos := g.fset.Position(v.Pos())
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	key := fmt.Sprintf("%s|%s:%d|%s", pkg, filepath.Base(pos.Filename), pos.Line, v.Name())
	if unnamed := g.unnamed[key]; unnamed != "" {
		return unnamed
	}
	return key
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
		fset:       l.fset,
		uses:       make(map[string][]string),
		syntax:     make(map[string][]declSyntax),
		named:      make(map[string]*types.Named),
		items:      make(map[string]*item),
		pkgRoots:   make(map[string][]string),
		imports:    make(map[string][]string),
		ifaces:     make(map[string][]*iface),
		ifaceNamed: make(map[string]string),
		satisfied:  make(map[string][]string),
		stdlib:     make(map[string]bool),
		sinks:      make(map[string]map[int]sinkMode),
		tsinks:     make(map[string]map[int]sinkMode),
		unnamed:    make(map[string]string),
		sent:       make(map[string][]string),
		read:       make(map[string][]string),
	}
	g.addInterface("error", types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	g.addAnonymousStdlib()
	for _, pkg := range l.pkgs {
		isMain := pkg.Files[0].Name.Name == "main" && isMainRoot(pkg.Path)
		if isMain {
			g.mains = append(g.mains, pkg.Path)
		}
		audited := strings.HasPrefix(pkg.Path, modulePrefix+"internal/")
		for _, obj := range pkg.Info.Uses {
			pn, ok := obj.(*types.PkgName)
			if !ok {
				continue
			}
			if imp := pn.Imported(); !strings.HasPrefix(imp.Path()+"/", modulePrefix) && !g.stdlib[imp.Path()] {
				g.stdlib[imp.Path()] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok {
							g.addInterface(imp.Name()+"."+name, it)
						}
					}
				}
			}
		}
		anon := 0
		// declare records one declaration: its key, whether the gate
		// reports it when unreached, its syntax and the objects it names.
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
				g.items[key] = &item{kind: declItem, name: path.Base(key), pos: l.fset.Position(name.Pos())}
			}
			g.syntax[key] = append(g.syntax[key], declSyntax{pkg, decl})
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
			g.collectInterfaces(pkg, f)
			if audited {
				g.collectFields(pkg, f)
			}
			if isMain {
				g.collectFlags(pkg, f)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := objKey(pkg.Info.Defs[d.Name])
					if d.Recv != nil && key == "" {
						continue
					}
					declare(key, d.Name, true, d)
					if it := g.items[key]; it != nil && d.Recv != nil {
						it.recv = key[:strings.LastIndex(key, ".")]
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							key := objKey(pkg.Info.Defs[spec.Name])
							if named, ok := pkg.Info.Defs[spec.Name].Type().(*types.Named); ok && key != "" {
								g.named[key] = named
							}
							declare(key, spec.Name, true, spec)
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
	g.solveSinks()
	g.collectRoutes(l)
	return g
}

// addInterface indexes one interface by the signatures of its methods.
func (g *reachGraph) addInterface(name string, it *types.Interface) {
	in := &iface{name: name}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		in.sigs = append(in.sigs, methodSig(m))
		if g.ifaceNamed[m.Name()] == "" {
			g.ifaceNamed[m.Name()] = name
		}
	}
	for _, sig := range in.sigs {
		g.ifaces[sig] = append(g.ifaces[sig], in)
	}
}

func (g *reachGraph) addAnonymousStdlib() {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "anonymous.go", anonymousStdlib, 0)
	if err != nil {
		panic(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		panic(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			g.addInterface(types.ExprString(it), info.Types[it].Type.(*types.Interface))
		}
		return true
	})
}

// collectInterfaces indexes every interface type the file spells.
func (g *reachGraph) collectInterfaces(pkg *Package, f *ast.File) {
	names := make(map[*ast.InterfaceType]string)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if it, ok := n.Type.(*ast.InterfaceType); ok {
				names[it] = path.Base(pkg.Path) + "." + n.Name.Name
			}
		case *ast.InterfaceType:
			name := names[n]
			if name == "" {
				pos := g.fset.Position(n.Pos())
				name = fmt.Sprintf("the interface at %s:%d", filepath.Base(pos.Filename), pos.Line)
			}
			if it, ok := pkg.Info.TypeOf(n).(*types.Interface); ok {
				g.addInterface(name, it)
			}
		}
		return true
	})
}

// collectFields records every named field the file's struct types declare.
// A field of an unnamed struct type is keyed by that type, not by position:
// identical unnamed struct types are one type, whose fields any of their
// spellings may read.
func (g *reachGraph) collectFields(pkg *Package, f *ast.File) {
	var walk func(root ast.Node, prefix string, named bool)
	walk = func(root ast.Node, prefix string, named bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, prefix+"."+n.Name.Name, true)
				return false
			case *ast.StructType:
				for _, field := range n.Fields.List {
					inner := prefix
					for _, name := range field.Names {
						inner = prefix + "." + name.Name
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok || name.Name == "_" {
							continue
						}
						key := g.fieldKey(v)
						if !named || n != root {
							g.unnamed[key] = pkg.Path + "|" + types.TypeString(pkg.Info.TypeOf(n), nil) + "|" + name.Name
							key = g.unnamed[key]
						}
						g.items[key] = &item{kind: fieldItem, name: inner, pos: g.fset.Position(name.Pos()), tagged: field.Tag != nil}
					}
					walk(field.Type, inner, false)
				}
				return false
			}
			return true
		})
	}
	base := path.Base(pkg.Path)
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				if recv := recvTypeName(d.Recv.List[0].Type); recv != "" {
					name = recv + "." + name
				}
			}
			walk(d, base+"."+name, false)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					walk(spec.Type, base+"."+spec.Name.Name, true)
				case *ast.ValueSpec:
					walk(spec, base+"."+spec.Names[0].Name, false)
				}
			}
		}
	}
}

// recvTypeName is the type name of a method's receiver expression.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectFlags records every flag the main package's file defines.
func (g *reachGraph) collectFlags(pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := (&Pass{Info: pkg.Info}).calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
			return true
		}
		i, ok := flagNameArg[fn.Name()]
		if !ok || i >= len(call.Args) {
			return true
		}
		tv := pkg.Info.Types[call.Args[i]]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		name := constant.StringVal(tv.Value)
		pos := g.fset.Position(call.Pos())
		g.items[fmt.Sprintf("flag|%s|%s:%d", name, pos.Filename, pos.Line)] = &item{
			kind: flagItem, name: path.Base(pkg.Path) + ".-" + name, pos: pos, flag: name,
		}
		return true
	})
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

// viaInterfaces returns the methods of a type that an interface its method
// set satisfies declares.
func (g *reachGraph) viaInterfaces(key string) []string {
	if ms, ok := g.satisfied[key]; ok {
		return ms
	}
	var ms []string
	if named := g.named[key]; named != nil && !types.IsInterface(named) {
		mset := types.NewMethodSet(types.NewPointer(named))
		have := make(map[string]*types.Func, mset.Len())
		for i := 0; i < mset.Len(); i++ {
			fn := mset.At(i).Obj().(*types.Func)
			have[methodSig(fn)] = fn
		}
		for sig, fn := range have {
			for _, in := range g.ifaces[sig] {
				if satisfies(have, in) {
					if k := objKey(fn); k != "" {
						ms = append(ms, k)
					}
					break
				}
			}
		}
	}
	g.satisfied[key] = ms
	return ms
}

func satisfies(have map[string]*types.Func, in *iface) bool {
	for _, sig := range in.sigs {
		if have[sig] == nil {
			return false
		}
	}
	return true
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
		// A reached type answers every interface its method set satisfies;
		// a reached method reaches its receiver through uses.
		for _, m := range g.viaInterfaces(key) {
			mark(m)
		}
	}
	return reached
}

// sunk is one call argument whose fields the callee reads.
type sunk struct {
	arg  ast.Expr
	mode sinkMode
}

// sunkArgs returns the arguments of call that reach a reflective sink:
// the `any` parameters of the reflective packages, and the parameters
// solveSinks found flowing into one.
func (g *reachGraph) sunkArgs(info *types.Info, call *ast.CallExpr) []sunk {
	fn := (&Pass{Info: info}).calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	mode, std := reflective[fn.Pkg().Path()]
	if fn.Pkg().Path() == "encoding/json" && (fn.Name() == "Unmarshal" || fn.Name() == "Decode") {
		mode = decodes
	}
	params := g.sinks[objKey(fn)]
	if !std && params == nil {
		return nil
	}
	var out []sunk
	for i, arg := range call.Args {
		p := i
		if sig.Variadic() && p >= sig.Params().Len()-1 {
			p = sig.Params().Len() - 1
		}
		if p >= sig.Params().Len() {
			break
		}
		if !std {
			if m := params[p]; m != 0 {
				out = append(out, sunk{arg, m})
			}
			continue
		}
		pt := sig.Params().At(p).Type()
		if s, ok := pt.(*types.Slice); ok && sig.Variadic() && p == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
			pt = s.Elem()
		}
		if it, ok := pt.Underlying().(*types.Interface); ok && it.Empty() {
			out = append(out, sunk{arg, mode})
		}
	}
	return out
}

// solveSinks finds, to a fixpoint, the parameters and type parameters of
// the tree's functions whose values reach a reflective sink: an argument
// of interface or type-parameter type the function passes on is followed
// back to what its callers pass.
func (g *reachGraph) solveSinks() {
	mark := func(m map[string]map[int]sinkMode, key string, i int, mode sinkMode) bool {
		if m[key][i]&mode == mode {
			return false
		}
		if m[key] == nil {
			m[key] = make(map[int]sinkMode)
		}
		m[key][i] |= mode
		return true
	}
	for changed := true; changed; {
		changed = false
		for key, list := range g.syntax {
			for _, s := range list {
				fd, ok := s.node.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				info := s.pkg.Info
				owner := key // whose type parameters fd's are
				if fd.Recv != nil {
					owner = key[:strings.LastIndex(key, ".")]
				}
				params := make(map[types.Object]int)
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						params[info.Defs[name]] = i
						i++
					}
					if len(field.Names) == 0 {
						i++
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						for _, a := range g.sunkArgs(info, n) {
							if tp := typeParamOf(info.TypeOf(a.arg)); tp != nil {
								changed = mark(g.tsinks, owner, tp.Index(), a.mode) || changed
							} else if id, ok := stripAddr(a.arg).(*ast.Ident); ok {
								if p, ok := params[info.Uses[id]]; ok && opaque(info.TypeOf(id)) {
									changed = mark(g.sinks, key, p, a.mode) || changed
								}
							}
						}
					case *ast.Ident:
						if inst, ok := info.Instances[n]; ok {
							for i, mode := range g.tsinks[objKey(info.Uses[n])] {
								if i < inst.TypeArgs.Len() {
									if tp := typeParamOf(inst.TypeArgs.At(i)); tp != nil {
										changed = mark(g.tsinks, owner, tp.Index(), mode) || changed
									}
								}
							}
						}
					}
					return true
				})
			}
		}
	}
}

func stripAddr(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return ast.Unparen(u.X)
	}
	return e
}

// typeParamOf returns the type parameter t is, or points to.
func typeParamOf(t types.Type) *types.TypeParam {
	for {
		switch x := t.(type) {
		case *types.TypeParam:
			return x
		case *types.Pointer:
			t = x.Elem()
		default:
			return nil
		}
	}
}

// opaque reports whether the static type of a value hides what it holds:
// an interface, or a variadic parameter's slice of interfaces.
func opaque(t types.Type) bool {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	return t != nil && types.IsInterface(t)
}

// fieldUse is what the reached declarations do with fields; the file
// header says what counts as a read.
type fieldUse struct {
	named   map[string]bool         // read by name
	sunk    map[string]bool         // read by a sink outside a handler, compared, hashed or converted
	served  map[string]*servedField // encoded into a response
	decoded map[string][]jsonField  // declaration → the fields of what it decodes from JSON
}

// jsonField is a field by key and by its JSON member.
type jsonField struct{ key, member string }

// servedField is a field a handler's response encodes.
type servedField struct {
	member   string
	handlers map[string]bool
}

func (u *fieldUse) read(key string) bool { return u.named[key] || u.sunk[key] }

// walkFields calls visit on every field a sink of the given mode reads in
// a value of type t; seen holds the types already walked.
func (g *reachGraph) walkFields(t types.Type, mode sinkMode, seen map[string]bool, visit func(v *types.Var, tag string)) {
	if t == nil {
		return
	}
	k := fmt.Sprintf("%d %s", mode, types.TypeString(t, nil))
	if seen[k] {
		return
	}
	seen[k] = true
	if mode == prints && printsItself(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if mode != compares {
			g.walkFields(u.Elem(), mode, seen, visit)
		}
	case *types.Slice:
		if mode != compares {
			g.walkFields(u.Elem(), mode, seen, visit)
		}
	case *types.Map:
		if mode != compares {
			g.walkFields(u.Key(), mode, seen, visit)
			g.walkFields(u.Elem(), mode, seen, visit)
		}
	case *types.Array:
		g.walkFields(u.Elem(), mode, seen, visit)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			visit(u.Field(i), u.Tag(i))
			g.walkFields(u.Field(i).Type(), mode, seen, visit)
		}
	}
}

// fieldReads returns what the reached declarations do with fields. A sink
// in a handler (a function declaration with an http.ResponseWriter
// parameter) that reads through reflection serves what it reads: those
// fields are recorded against the handler, not read.
func (g *reachGraph) fieldReads(reached map[string]bool) *fieldUse {
	u := &fieldUse{
		named:   make(map[string]bool),
		sunk:    make(map[string]bool),
		served:  make(map[string]*servedField),
		decoded: make(map[string][]jsonField),
	}
	seen := make(map[string]bool)
	sunk := func(v *types.Var, _ string) { u.sunk[g.fieldKey(v)] = true }
	for key := range reached {
		for _, s := range g.syntax[key] {
			info := s.pkg.Info
			fd, _ := s.node.(*ast.FuncDecl)
			handler := fd != nil && servesHTTP(info, fd.Type)
			local := make(map[string]bool) // what this declaration serves and decodes
			sink := func(t types.Type, mode sinkMode) {
				if mode&decodes != 0 {
					g.walkFields(t, decodes, local, func(v *types.Var, tag string) {
						u.decoded[key] = append(u.decoded[key], jsonField{g.fieldKey(v), jsonMember(v, tag)})
					})
				}
				switch mode &^= decodes; {
				case mode == reflects && handler:
					g.walkFields(t, mode, local, func(v *types.Var, tag string) {
						f := g.fieldKey(v)
						if u.served[f] == nil {
							u.served[f] = &servedField{jsonMember(v, tag), make(map[string]bool)}
						}
						u.served[f].handlers[key] = true
					})
				case mode != 0:
					g.walkFields(t, mode, seen, sunk)
				}
			}
			writes := writeTargets(s.node)
			ast.Inspect(s.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && !writes[n] {
						u.named[g.fieldKey(v)] = true
					}
					if inst, ok := info.Instances[n]; ok {
						for i, mode := range g.tsinks[objKey(info.Uses[n])] {
							if i < inst.TypeArgs.Len() {
								sink(inst.TypeArgs.At(i), mode)
							}
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						g.walkFields(info.TypeOf(n.X), compares, seen, sunk)
						g.walkFields(info.TypeOf(n.Y), compares, seen, sunk)
					}
				case *ast.CompositeLit, *ast.MapType:
					if t := info.TypeOf(n.(ast.Expr)); t != nil {
						if m, ok := t.Underlying().(*types.Map); ok {
							g.walkFields(m.Key(), compares, seen, sunk)
						}
					}
				case *ast.CallExpr:
					if tv := info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
						if _, ok := tv.Type.Underlying().(*types.Struct); ok {
							g.walkFields(info.TypeOf(n.Args[0]), compares, seen, sunk)
						}
					}
					for _, a := range g.sunkArgs(info, n) {
						// A literal handed over as `any` may hold values whose
						// static type its own type hides (map[string]any{…}).
						var walk func(e ast.Expr)
						walk = func(e ast.Expr) {
							sink(info.TypeOf(e), a.mode)
							if lit, ok := stripAddr(e).(*ast.CompositeLit); ok {
								for _, el := range lit.Elts {
									if kv, ok := el.(*ast.KeyValueExpr); ok {
										el = kv.Value
									}
									walk(el)
								}
							}
						}
						walk(a.arg)
					}
				}
				return true
			})
		}
	}
	return u
}

// printsItself reports whether fmt prints t through a method of its own.
func printsItself(t types.Type) bool {
	for _, name := range []string{"Error", "String", "Format"} {
		if obj, _, _ := types.LookupFieldOrMethod(t, false, nil, name); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

// writeTargets returns the field names in n that are only written: the
// selector of a plain `=` target, and the key of a keyed composite literal.
func writeTargets(n ast.Node) map[*ast.Ident]bool {
	w := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						w[sel.Sel] = true
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id] = true
			}
		}
		return true
	})
	return w
}

// flagSettings returns the text in which a flag counts as set: the docs
// (every file under scripts/ and .github/workflows/, bench/run.sh and
// README.md), and every _test.go file of the module outside testdata/.
func flagSettings(root string) (docs, tests string, err error) {
	var b strings.Builder
	add := func(p string) error {
		data, err := os.ReadFile(p)
		b.Write(data)
		b.WriteByte('\n')
		return err
	}
	for _, f := range []string{"bench/run.sh", "README.md"} {
		if err := add(filepath.Join(root, f)); err != nil {
			return "", "", err
		}
	}
	for _, dir := range []string{"scripts", ".github/workflows"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return add(p)
		})
		if err != nil {
			return "", "", err
		}
	}
	docs = b.String()
	b.Reset()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, "_test.go") {
			return add(p)
		}
		return nil
	})
	return docs, b.String(), err
}

// flagIsSet reports whether the settings text passes the flag by name.
func flagIsSet(settings, name string) bool {
	return regexp.MustCompile("(^|[\\s\"'`(\\[])--?" + regexp.QuoteMeta(name) + "($|[\\s\"'`=)\\]])").MatchString(settings)
}

// live decides every item against one reached set. A field a handler's
// response encodes and no other sink reads becomes a wire-only field, and
// the wire pass decides it (wire_test.go).
func (g *reachGraph) live(reached map[string]bool, docs, tests string) map[string]bool {
	use := g.fieldReads(reached)
	wire := g.wireUsed(reached, use, docs)
	live := make(map[string]bool)
	for key, it := range g.items {
		switch it.kind {
		case declItem:
			live[key] = reached[key]
		case fieldItem, wireFieldItem:
			it.kind = fieldItem
			live[key] = it.tagged || use.read(key)
			if use.served[key] != nil && !use.sunk[key] {
				it.kind = wireFieldItem
				live[key] = wire[key]
			}
		case flagItem:
			live[key] = flagIsSet(docs+tests, it.flag)
		default:
			live[key] = wire[key]
		}
	}
	return live
}

// shortName renders a key as the keep-list spells it: pkg.Name or
// pkg.Type.Method, with the package's last path element.
func shortName(key string) string { return path.Base(key) }

// keepEntry is one line of testdata/reach-keep.txt.
type keepEntry struct {
	line        int
	pattern     string // a keep-list name, or a prefix of names with a trailing .*
	reason      byte   // 'a', 'b' or 'c'
	counterpart string // (b): the declaration or flag named right after "(b) "
	matched     bool
}

func (e *keepEntry) matches(name string) bool {
	if prefix, ok := strings.CutSuffix(e.pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == e.pattern
}

// readKeepList parses `pkg.Name — (a|b|c) reason` lines; blank lines and
// lines starting with # are skipped. A (b) reason starts with the name of
// its counterpart.
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
		e := &keepEntry{line: n, pattern: pattern, reason: reason[1]}
		if e.reason == 'b' {
			e.counterpart, _, _ = strings.Cut(reason[4:], " ")
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// testUsers typechecks every loaded package's _test.go files (in-package
// tests together with the package, external ones against its export data)
// and returns, per declaration or field, the directories whose tests name
// it. Reason (a) is checked against this rather than taken on trust. It
// records what the tests do on the wire with the graph as it goes. Type
// errors are ignored: `go vet` owns them, and a test that does not compile
// names nothing.
func testUsers(l loaded, g *reachGraph) (map[string]map[string]bool, error) {
	_, exports, err := goList("../..", []string{"./..."})
	if err != nil {
		return nil, err
	}
	imp := exportImporter(l.fset, exports)
	users := make(map[string]map[string]bool)
	for _, pkg := range l.pkgs {
		dir := filepath.Dir(l.fset.Position(pkg.Files[0].Pos()).Filename)
		names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
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
			if name == pkg.Files[0].Name.Name {
				files, path = append(append([]*ast.File(nil), pkg.Files...), tests...), pkg.Path
			}
			info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
			conf := types.Config{Importer: imp, Error: func(error) {}}
			_, _ = conf.Check(path, l.fset, files, info)
			g.addTestUses(info, tests, dir)
			for _, f := range tests {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						key := objKey(info.Uses[id])
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							key = g.fieldKey(v)
						}
						if key != "" {
							if users[key] == nil {
								users[key] = make(map[string]bool)
							}
							users[key][dir] = true
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
// file and of wire_test.go. It fails with the position of every exported
// internal/ declaration no main reaches, every internal/ field no main
// reads, every flag nothing sets and every route, parameter, header and
// wire-only field nothing uses, unless a keep-list entry covers it; with
// every (a) entry no test outside the declaration's package bears out;
// with every (b) entry whose counterpart is no declaration or flag a main
// reaches;
// with every keep-list entry that no longer keeps anything; and when the
// surface differs from testdata/wire.golden.
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
	users, err := testUsers(l, g)
	if err != nil {
		t.Fatal(err)
	}
	docs, tests, err := flagSettings("../..")
	if err != nil {
		t.Fatal(err)
	}
	g.addDocs(docs)

	const keepFile = "testdata/reach-keep.txt"
	keep := readKeepList(t, keepFile)
	fromMains := g.live(g.reach(nil), docs, tests)
	var roots []string                     // kept declarations: each runs in some test, so what it calls is kept with it
	kept := make(map[string]bool)          // what a keep-list entry holds
	claimed := make(map[string]*keepEntry) // (a) entries by the items they cover
	for key, it := range g.items {
		if fromMains[key] {
			continue
		}
		for _, e := range keep {
			if !e.matches(it.name) {
				continue
			}
			e.matched = true
			if e.reason == 'a' {
				claimed[key] = e
				if !testedElsewhere(users[key], it.pos) {
					continue
				}
			}
			kept[key] = true
			if it.kind == declItem {
				roots = append(roots, key)
			}
		}
	}
	for _, e := range keep {
		if !e.matched {
			t.Errorf("%s:%d: stale entry %s: nothing it names is both declared and unreached", keepFile, e.line, e.pattern)
		}
	}
	counterparts := make(map[string]bool) // a declaration's or flag's name → whether a main reaches one of that name
	for key, it := range g.items {
		if it.kind == declItem || it.kind == flagItem {
			counterparts[it.name] = counterparts[it.name] || fromMains[key]
		}
	}
	for _, e := range keep {
		if e.reason != 'b' {
			continue
		}
		if reached, ok := counterparts[e.counterpart]; !ok {
			t.Errorf("%s:%d: %s is kept for reason (b), but %q names no exported declaration or flag: name right after `(b) ` the one a main reaches that writes or reads the same bytes", keepFile, e.line, e.pattern, e.counterpart)
		} else if !reached {
			t.Errorf("%s:%d: %s is kept for reason (b), but no main reaches its counterpart %s: a byte format no binary writes or reads is not kept, delete both", keepFile, e.line, e.pattern, e.counterpart)
		}
	}

	final := g.live(g.reach(roots), docs, tests)
	var dead []string
	counts := make([]struct{ total, live, kept int }, len(itemKinds))
	for key, it := range g.items {
		c := &counts[it.kind]
		c.total++
		switch {
		case fromMains[key]:
			c.live++
		case final[key] || kept[key]:
			c.kept++
		default:
			dead = append(dead, key)
		}
	}
	for kind, what := range itemKinds {
		c, verb := counts[kind], "reached,"
		if itemKind(kind) >= routeItem {
			verb = "used,"
		}
		t.Logf("reach: %-21s %5d total, %5d %-8s %3d kept, %3d unused", what, c.total, c.live, verb, c.kept, c.total-c.live-c.kept)
	}
	var untested []string
	for _, m := range g.mains {
		if g.runByTest(m, users) {
			continue
		}
		short := strings.TrimPrefix(m, modulePrefix)
		untested = append(untested, short)
		if !strings.HasPrefix(short, "bench/") {
			t.Errorf("%s: no test in its directory calls a function its main calls: README tells users to go run it, so a test must call its run function and check what it prints or serves", short)
		}
	}
	sort.Strings(untested)
	t.Logf("reach: %d mains, %d run by a test (not: %s), %d keep-list entries", len(g.mains), len(g.mains)-len(untested), strings.Join(untested, ", "), len(keep))
	sort.Slice(dead, func(i, j int) bool {
		a, b := g.items[dead[i]].pos, g.items[dead[j]].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	for _, key := range dead {
		it := g.items[key]
		pos := it.pos
		if e := claimed[key]; e != nil {
			t.Errorf("%s:%d: %s is kept by %s:%d (%s) for reason (a), but no test outside its package names it or anything that reaches it: delete it with its tests", pos.Filename, pos.Line, it.name, keepFile, e.line, e.pattern)
			continue
		}
		const uses = "no client a main reaches, no curl line of scripts/, .github/workflows/, bench/run.sh or README.md and no test outside its package"
		switch it.kind {
		case routeItem:
			t.Errorf("%s:%d: route %s: %s requests it: delete it with its handler", pos.Filename, pos.Line, it.name, uses)
		case paramItem:
			t.Errorf("%s:%d: query parameter %q (%s): no request to %s carries it: delete the read", pos.Filename, pos.Line, it.flag, it.name, routeNames(it.wire.routes))
		case headerItem:
			if it.wire.resp {
				t.Errorf("%s:%d: response header %s (%s): %s reads it, and no doc line names it: stop setting it", pos.Filename, pos.Line, it.flag, it.name, uses)
			} else {
				t.Errorf("%s:%d: request header %s (%s): %s sets it: delete the read", pos.Filename, pos.Line, it.flag, it.name, uses)
			}
		case wireFieldItem:
			t.Errorf("%s:%d: field %s travels only on the wire, and no code a main reaches names it, no client of its route decodes its JSON member by name and no doc line requests its route: delete it, or list it in %s", pos.Filename, pos.Line, it.name, keepFile)
		case fieldItem:
			t.Errorf("%s:%d: field %s is never read by code a main reaches (a plain = or a composite-literal key only writes it): delete it, keeping any random draw that filled it, or list it in %s", pos.Filename, pos.Line, it.name, keepFile)
		case flagItem:
			t.Errorf("%s:%d: flag -%s of %s is set nowhere in scripts/, bench/run.sh, .github/workflows/, README.md or a _test.go: delete it and make its default a constant, or list it as %s in %s", pos.Filename, pos.Line, it.flag, strings.TrimSuffix(it.name, ".-"+it.flag), it.name, keepFile)
		default:
			hint := ""
			if in := g.ifaceNamed[it.name[strings.LastIndex(it.name, ".")+1:]]; in != "" && it.recv != "" {
				hint = fmt.Sprintf(" (%s declares a method of that name, but %s's method set does not satisfy it)", in, shortName(it.recv))
			}
			t.Errorf("%s:%d: %s is exported but no main under cmd/, examples/ or bench/cmd/ reaches it%s: delete it with its tests, or list it in %s", pos.Filename, pos.Line, it.name, hint, keepFile)
		}
	}

	g.checkWireGolden(t)

	// The fault injectors are test support: no binary links them.
	for p := range g.linked() {
		for _, q := range g.imports[p] {
			if q == modulePrefix+"internal/faults" {
				t.Errorf("%s imports internal/faults and a main links it: the injectors are for tests only", p)
			}
		}
	}
}

// runByTest reports whether a _test.go file in the directory of main
// package m names a function that m's main calls.
func (g *reachGraph) runByTest(m string, users map[string]map[string]bool) bool {
	entry := m + ".main"
	dir := filepath.Dir(g.fset.Position(g.syntax[entry][0].node.Pos()).Filename)
	for _, callee := range g.uses[entry] {
		if !strings.HasPrefix(callee, m+".") || !users[callee][dir] {
			continue
		}
		if _, ok := g.syntax[callee][0].node.(*ast.FuncDecl); ok {
			return true
		}
	}
	return false
}

// testedElsewhere reports whether a test outside the directory that
// declares pos names the item.
func testedElsewhere(dirs map[string]bool, pos token.Position) bool {
	for dir := range dirs {
		if dir != filepath.Dir(pos.Filename) {
			return true
		}
	}
	return false
}
