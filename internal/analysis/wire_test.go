package analysis

// The wire half of the reachability gate: the HTTP surface the daemons
// under internal/ serve is decided by the rule flags follow. Four kinds of
// item, each found in a handler — the functions a mux.HandleFunc
// registration names, with their package-local callees:
//   - a route, by method and path template;
//   - a query parameter a handler reads (url.Values Get or index);
//   - a request header a handler reads (r.Header.Get);
//   - a response header a handler sets (w.Header().Set or Add), except
//     Content-Type and Content-Length, which are HTTP framing.
//
// Each must be used, by one of:
//   - code a main reaches. A request is a path expression handed to a call,
//     a composite literal, an assignment or a return: a string constant
//     starting with "/", or a `+` chain from one, each non-constant operand
//     of which reads as one path segment (the chain's leading non-constant
//     operands, a base URL, are dropped). Its method is an HTTP method
//     constant among the same operands, or what http.Get, Head or Post
//     sends; failing both it is POST beside a field named body, else GET.
//     A request header is used where such code sets it on a request's
//     Header, a response header where it reads one off a response;
//   - a line of scripts/, .github/workflows/, bench/run.sh or README.md:
//     a curl command (its -X, else POST with -d, HEAD with -I, else GET;
//     its URL's path and query; each -H), or, for a response header, any
//     line that names it;
//   - a test outside the handler's package, by the same rules as code.
//
// A GET route serves HEAD too. A parameter is used when a request to one
// of the routes whose handler reads it carries it.
//
// Fields. A struct type a handler's response encodes through reflection,
// and that no sink outside a handler reads (no journal, archive format or
// printout), travels only on the wire. Its fields are not read by the
// encoder: one is read when reached code names it, when code or a test that
// requests one of its routes decodes a type whose field of the same JSON
// member it names, or when a doc line requests one of its routes. A handler
// here is a function declaration with an http.ResponseWriter parameter.
//
// testdata/wire.golden pins the surface: one row per route with its
// parameters, request headers, response headers and the http.Status* codes
// its handler names. The keep-list spells a route pkg.METHOD /path, a
// parameter pkg.Func?name, and headers pkg.Func header Name (read from the
// request) and pkg.Func sets Name (on the response).

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// framing are the response headers net/http and every client handle
// themselves.
var framing = map[string]bool{"Content-Type": true, "Content-Length": true}

// wireRoute is one mux.HandleFunc registration under internal/.
type wireRoute struct {
	key          string // its item key
	pkg, dir     string // the registering package and its directory
	method, path string // method "" serves every method
	re           *regexp.Regexp
	funcs        map[string]bool // the declarations its handler runs
	params       map[string]bool
	reqHeaders   map[string]bool
	respHeaders  map[string]bool
	statuses     map[int64]bool
}

// wireSite is where a route, parameter or header is served.
type wireSite struct {
	routes []*wireRoute
	resp   bool // a response header, not a request header
}

// wireRequest is one request a doc line, a test or reached code makes.
type wireRequest struct {
	method, path string
	params       map[string]bool
	dir          string          // a test's directory; "" for docs and code
	doc          bool            // a doc line
	decl         string          // the reached declaration that makes it
	members      map[string]bool // a test's: the JSON members the test function decodes and names
}

func newRequest(method, target string) wireRequest {
	p, query, _ := strings.Cut(target, "?")
	q := wireRequest{method: method, path: p, params: make(map[string]bool)}
	for _, kv := range strings.Split(query, "&") {
		if name, _, _ := strings.Cut(kv, "="); name != "" {
			if n, err := url.QueryUnescape(name); err == nil {
				q.params[n] = true
			}
		}
	}
	return q
}

func (r *wireRoute) serves(q wireRequest) bool {
	if r.method != "" && r.method != q.method && (r.method != http.MethodGet || q.method != http.MethodHead) {
		return false
	}
	return r.re.MatchString(q.path)
}

// routeRegexp matches the paths a pattern's path serves: {x} is one
// segment, {x...} the rest of the path.
func routeRegexp(pattern string) *regexp.Regexp {
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		switch {
		case strings.HasPrefix(s, "{") && strings.HasSuffix(s, "...}"):
			segs[i] = ".*"
		case strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}"):
			segs[i] = "[^/]+"
		default:
			segs[i] = regexp.QuoteMeta(s)
		}
	}
	return regexp.MustCompile("^" + strings.Join(segs, "/") + "$")
}

// isNamed reports whether t, or what it points to, is the named type
// pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkg && n.Obj().Name() == name
}

// recvIs reports whether fn is a method of pkg.name.
func recvIs(fn *types.Func, pkg, name string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && isNamed(recv.Type(), pkg, name)
}

// servesHTTP reports whether a function takes an http.ResponseWriter.
func servesHTTP(info *types.Info, ft *ast.FuncType) bool {
	for _, f := range ft.Params.List {
		if isNamed(info.TypeOf(f.Type), "net/http", "ResponseWriter") {
			return true
		}
	}
	return false
}

func jsonMember(v *types.Var, tag string) string {
	name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
	if name == "" {
		name = v.Name()
	}
	return strings.ToLower(name)
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv := info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// headerCall classifies a call of an http.Header method: request is true
// when the header is a request's (r.Header), false for any other (a
// response's, a ResponseWriter's, a recorder's).
func headerCall(info *types.Info, call *ast.CallExpr) (fn *types.Func, name string, request bool, ok bool) {
	fn = (&Pass{Info: info}).calleeFunc(call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn == nil || !isSel || !recvIs(fn, "net/http", "Header") || len(call.Args) == 0 {
		return nil, "", false, false
	}
	name, ok = constString(info, call.Args[0])
	if h, isField := ast.Unparen(sel.X).(*ast.SelectorExpr); isField && h.Sel.Name == "Header" {
		request = isNamed(info.TypeOf(h.X), "net/http", "Request")
	}
	return fn, name, request, ok
}

var httpMethods = map[string]bool{"GET": true, "HEAD": true, "POST": true, "PUT": true, "DELETE": true, "PATCH": true, "OPTIONS": true}

// pathTemplate renders a string expression that builds a request path:
// a constant starting with "/", or a `+` chain from one (past any leading
// non-constant operands), with each non-constant operand read as one
// segment, "x".
func pathTemplate(info *types.Info, e ast.Expr) (string, bool) {
	if t := info.TypeOf(e); t == nil || !types.Identical(t.Underlying(), types.Typ[types.String]) {
		return "", false
	}
	var parts []string
	var flatten func(e ast.Expr)
	flatten = func(e ast.Expr) {
		e = ast.Unparen(e)
		if s, ok := constString(info, e); ok {
			parts = append(parts, s)
		} else if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			flatten(b.X)
			flatten(b.Y)
		} else {
			parts = append(parts, "")
		}
	}
	flatten(e)
	for len(parts) > 0 && parts[0] == "" {
		parts = parts[1:]
	}
	if len(parts) == 0 || !strings.HasPrefix(parts[0], "/") {
		return "", false
	}
	for i, p := range parts {
		if p == "" {
			parts[i] = "x"
		}
	}
	return strings.Join(parts, ""), true
}

// scanClient reports the requests root makes and the headers it sets on a
// request (sent) or reads off a response.
func scanClient(info *types.Info, root ast.Node, request func(method, target string), header func(name string, sent bool)) {
	ast.Inspect(root, func(n ast.Node) bool {
		var operands []ast.Expr
		method, body := "", false
		switch n := n.(type) {
		case *ast.CallExpr:
			operands = n.Args
			if fn, name, req, ok := headerCall(info, n); ok {
				switch fn.Name() {
				case "Set", "Add":
					if req {
						header(name, true)
					}
				case "Get", "Values":
					if !req {
						header(name, false)
					}
				}
				return true
			}
			if fn := (&Pass{Info: info}).calleeFunc(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
				if fn.Type().(*types.Signature).Recv() == nil || recvIs(fn, "net/http", "Client") {
					switch fn.Name() {
					case "Get", "Head", "Post":
						method = strings.ToUpper(fn.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "body" {
						body = true
					}
					el = kv.Value
				}
				operands = append(operands, el)
			}
		case *ast.AssignStmt:
			operands = n.Rhs
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "body" {
					body = true
				}
			}
		case *ast.ReturnStmt:
			operands = n.Results
		default:
			return true
		}
		for _, op := range operands {
			if s, ok := constString(info, op); ok && httpMethods[s] {
				method = s
			}
		}
		if method == "" {
			method = http.MethodGet
			if body {
				method = http.MethodPost
			}
		}
		for _, op := range operands {
			if t, ok := pathTemplate(info, op); ok {
				request(method, t)
			}
		}
		return true
	})
}

// collectRoutes records every mux.HandleFunc registration under internal/
// with what its handler serves, and the gate's items for them.
func (g *reachGraph) collectRoutes(l loaded) {
	for _, pkg := range l.pkgs {
		if !strings.HasPrefix(pkg.Path, modulePrefix+"internal/") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				fn := (&Pass{Info: pkg.Info}).calleeFunc(call)
				pattern, ok := constString(pkg.Info, call.Args[0])
				if fn == nil || fn.Name() != "HandleFunc" || !recvIs(fn, "net/http", "ServeMux") || !ok {
					return true
				}
				g.addRoute(pkg, call, pattern)
				return true
			})
		}
	}
}

func (g *reachGraph) addRoute(pkg *Package, call *ast.CallExpr, pattern string) {
	pos := g.fset.Position(call.Pos())
	method, p, ok := strings.Cut(pattern, " ")
	if !ok {
		method, p = "", pattern
	}
	r := &wireRoute{
		key: "wire|route|" + pattern + "|" + pos.String(), pkg: pkg.Path, dir: filepath.Dir(pos.Filename),
		method: method, path: p, re: routeRegexp(p), funcs: make(map[string]bool),
		params: make(map[string]bool), reqHeaders: make(map[string]bool), respHeaders: make(map[string]bool), statuses: make(map[int64]bool),
	}
	g.routes = append(g.routes, r)
	base := path.Base(pkg.Path)
	g.items[r.key] = &item{kind: routeItem, name: base + "." + pattern, pos: pos, wire: &wireSite{routes: []*wireRoute{r}}}

	// The handler: the literals and the package's declarations the
	// registration names, and their package-local callees.
	type root struct {
		owner string
		node  ast.Node
	}
	roots := []root{{base, call.Args[1]}}
	var work []string
	mark := func(key string) {
		if strings.HasPrefix(key, pkg.Path+".") && !r.funcs[key] {
			r.funcs[key] = true
			work = append(work, key)
		}
	}
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			mark(objKey(pkg.Info.Uses[id]))
		}
		return true
	})
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.syntax[key] {
			roots = append(roots, root{shortName(key), s.node})
		}
		for _, used := range g.uses[key] {
			mark(used)
		}
	}

	site := func(kind itemKind, rt root, at ast.Node, name string, resp bool) {
		pos := g.fset.Position(at.Pos())
		key := "wire|" + strconv.Itoa(int(kind)) + "|" + pos.String() + "|" + name
		it := g.items[key]
		if it == nil {
			label := rt.owner + " header " + name
			switch {
			case kind == paramItem:
				label = rt.owner + "?" + name
			case resp:
				label = rt.owner + " sets " + name
			}
			it = &item{kind: kind, name: label, pos: pos, flag: name, wire: &wireSite{resp: resp}}
			g.items[key] = it
		}
		it.wire.routes = append(it.wire.routes, r)
	}
	info := pkg.Info
	for _, rt := range roots {
		ast.Inspect(rt.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := (&Pass{Info: info}).calleeFunc(n); fn != nil && fn.Name() == "Get" && recvIs(fn, "net/url", "Values") {
					if name, ok := constString(info, n.Args[0]); ok {
						r.params[name] = true
						site(paramItem, rt, n, name, false)
					}
				}
				fn, name, req, ok := headerCall(info, n)
				switch {
				case !ok:
				case req && fn.Name() == "Get":
					r.reqHeaders[name] = true
					site(headerItem, rt, n, name, false)
				case !req && (fn.Name() == "Set" || fn.Name() == "Add") && !framing[name]:
					r.respHeaders[name] = true
					site(headerItem, rt, n, name, true)
				}
			case *ast.IndexExpr:
				if isNamed(info.TypeOf(n.X), "net/url", "Values") {
					if name, ok := constString(info, n.Index); ok {
						r.params[name] = true
						site(paramItem, rt, n, name, false)
					}
				}
			case *ast.Ident:
				if c, ok := info.Uses[n].(*types.Const); ok && c.Pkg() != nil && c.Pkg().Path() == "net/http" && strings.HasPrefix(c.Name(), "Status") {
					if v, ok := constant.Int64Val(c.Val()); ok {
						r.statuses[v] = true
					}
				}
			}
			return true
		})
	}
}

var (
	curlURL    = regexp.MustCompile(`(?:[\w.-]+:\d+|\$\{?\w+\}?)(/[^\s'"\\]*)`)
	curlMethod = regexp.MustCompile(`(?:\s-X\s*|\s--request[\s=])['"]?([A-Z]+)`)
	curlHeader = regexp.MustCompile(`(?:\s-H|\s--header)\s*['"]?([\w-]+):`)
	curlData   = regexp.MustCompile(`\s(?:-d|--data[\w-]*|-F|--form)\s`)
	curlHead   = regexp.MustCompile(`\s(?:-[a-zA-Z]*I|--head)\s`)
)

// addDocs records the requests and request headers of every curl command
// in the docs; a line ending in a backslash continues on the next.
func (g *reachGraph) addDocs(docs string) {
	for _, line := range strings.Split(strings.ReplaceAll(docs, "\\\n", " "), "\n") {
		if !strings.Contains(line, "curl ") {
			continue
		}
		line = " " + line + " "
		method := http.MethodGet
		if m := curlMethod.FindStringSubmatch(line); m != nil {
			method = m[1]
		} else if curlData.MatchString(line) {
			method = http.MethodPost
		} else if curlHead.MatchString(line) {
			method = http.MethodHead
		}
		for _, m := range curlHeader.FindAllStringSubmatch(line, -1) {
			name := http.CanonicalHeaderKey(m[1])
			g.sent[name] = append(g.sent[name], "")
		}
		for _, m := range curlURL.FindAllStringSubmatch(line, -1) {
			q := newRequest(method, m[1])
			q.doc = true
			g.wireUses = append(g.wireUses, q)
		}
	}
}

// addTestUses records what one typechecked test package does on the wire:
// each test declaration's requests, with the JSON members it decodes with
// encoding/json itself and names anywhere in the package, and the headers
// it sends and reads.
func (g *reachGraph) addTestUses(info *types.Info, files []*ast.File, dir string) {
	named := make(map[*types.Var]bool)
	for _, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			named[v] = true
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			members := make(map[string]bool)
			seen := make(map[string]bool)
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := (&Pass{Info: info}).calleeFunc(call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" || fn.Name() != "Unmarshal" && fn.Name() != "Decode" {
					return true
				}
				g.walkFields(info.TypeOf(call.Args[len(call.Args)-1]), decodes, seen, func(v *types.Var, tag string) {
					if named[v] {
						members[jsonMember(v, tag)] = true
					}
				})
				return true
			})
			scanClient(info, d, func(method, target string) {
				q := newRequest(method, target)
				q.dir, q.members = dir, members
				g.wireUses = append(g.wireUses, q)
			}, func(name string, sent bool) {
				name = http.CanonicalHeaderKey(name)
				if sent {
					g.sent[name] = append(g.sent[name], dir)
				} else {
					g.read[name] = append(g.read[name], dir)
				}
			})
		}
	}
}

// wireUsed decides the wire items and the served fields against one
// reached set and what it does with fields.
func (g *reachGraph) wireUsed(reached map[string]bool, use *fieldUse, docs string) map[string]bool {
	requests := append([]wireRequest(nil), g.wireUses...)
	sent, read := make(map[string]bool), make(map[string]bool) // by reached code
	for key := range reached {
		for _, s := range g.syntax[key] {
			scanClient(s.pkg.Info, s.node, func(method, target string) {
				q := newRequest(method, target)
				q.decl = key
				requests = append(requests, q)
			}, func(name string, isSent bool) {
				name = http.CanonicalHeaderKey(name)
				sent[name] = sent[name] || isSent
				read[name] = read[name] || !isSent
			})
		}
	}
	live := make(map[string]bool)
	requested := make(map[*wireRoute][]wireRequest)
	for _, r := range g.routes {
		for _, q := range requests {
			if q.dir != r.dir && r.serves(q) {
				requested[r] = append(requested[r], q)
			}
		}
		live[r.key] = len(requested[r]) > 0
	}
	elsewhere := func(dirs []string, it *item) bool {
		for _, d := range dirs {
			if d != filepath.Dir(it.pos.Filename) {
				return true
			}
		}
		return false
	}
	for key, it := range g.items {
		switch it.kind {
		case paramItem:
			for _, r := range it.wire.routes {
				for _, q := range requested[r] {
					live[key] = live[key] || q.params[it.flag]
				}
			}
		case headerItem:
			name := http.CanonicalHeaderKey(it.flag)
			if it.wire.resp {
				live[key] = elsewhere(g.read[name], it) || read[name] ||
					regexp.MustCompile(`(?i)\b`+regexp.QuoteMeta(name)+`\b`).MatchString(docs)
			} else {
				live[key] = elsewhere(g.sent[name], it) || sent[name]
			}
		}
	}

	// A served field is read by name, by a decoder beside a request for one
	// of its routes, or by a doc line that requests one.
	members := make(map[string]map[string]bool) // reached declaration → the JSON members it decodes and names
	for decl, fields := range use.decoded {
		members[decl] = make(map[string]bool)
		for _, f := range fields {
			if use.named[f.key] {
				members[decl][f.member] = true
			}
		}
	}
	for f, s := range use.served {
		live[f] = use.named[f]
		for _, r := range g.routes {
			for h := range s.handlers {
				if !r.funcs[h] {
					continue
				}
				for _, q := range requested[r] {
					live[f] = live[f] || q.doc || q.members[s.member] || members[q.decl][s.member]
				}
			}
		}
	}
	return live
}

// wireTable renders the surface: one sorted row per route.
func (g *reachGraph) wireTable() string {
	list := func(set map[string]bool) string {
		if len(set) == 0 {
			return "-"
		}
		var names []string
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	var rows []string
	for _, r := range g.routes {
		var codes []string
		for c := range r.statuses {
			codes = append(codes, strconv.FormatInt(c, 10))
		}
		sort.Strings(codes)
		rows = append(rows, strings.Join([]string{
			path.Base(r.pkg) + " " + strings.TrimSpace(r.method+" "+r.path),
			list(r.params), list(r.reqHeaders), list(r.respHeaders), strings.Join(codes, " "),
		}, " | "))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n") + "\n"
}

// checkWireGolden compares the surface with testdata/wire.golden, whose
// lines starting with # are comments.
func (g *reachGraph) checkWireGolden(t *testing.T) {
	t.Helper()
	const golden = "testdata/wire.golden"
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got := g.wireTable(); got != want.String() {
		t.Errorf("the HTTP surface differs from %s; if the change is meant, its rows are now:\n%s", golden, got)
	}
}

// TestWireGateOnTestdata runs the wire pass over testdata/wire: a handler
// package, a main that is its client, and a README. It must name each item
// the sources mark unused and nothing else: a path concatenated around an
// ID, a {name...} wildcard, a header named by a constant and a curl line's
// -H all count as uses.
func TestWireGateOnTestdata(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(dir string) []*ast.File {
		names, err := filepath.Glob(filepath.Join("testdata", "wire", dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("testdata/wire/%s: %v", dir, err)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	_, exports, err := goList(".", []string{"net/http", "encoding/json"})
	if err != nil {
		t.Fatal(err)
	}
	std := exportImporter(fset, exports)
	server := &Package{Path: modulePrefix + "internal/wire", Files: parse("server")}
	if server.Info, err = typecheck(fset, std, server.Path, server.Files); err != nil {
		t.Fatal(err)
	}
	client := &Package{Path: modulePrefix + "cmd/wire", Files: parse("client")}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if p == server.Path {
			for _, obj := range server.Info.Defs {
				if obj != nil {
					return obj.Pkg(), nil
				}
			}
		}
		return std.Import(p)
	})
	if client.Info, err = typecheck(fset, imp, client.Path, client.Files); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join("testdata", "wire", "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	g := buildReachGraph(loaded{fset, []*Package{server, client}})
	g.addDocs(string(readme))
	live := g.live(g.reach(nil), string(readme), "")
	want := map[string]bool{
		"wire.GET /debug":                         true,
		"wire.Server.handleItem?verbose":          true,
		"wire.Server.handleItem header X-Trace":   true,
		"wire.Server.handleItem sets X-Served-By": true,
		"wire.Item.Size":                          true,
	}
	for key, it := range g.items {
		if live[key] == want[it.name] {
			t.Errorf("%s (kind %d): live %v, want %v", it.name, it.kind, live[key], !want[it.name])
		}
		delete(want, it.name)
	}
	for name := range want {
		t.Errorf("%s is not an item", name)
	}
	const table = `wire GET /debug | prefix | X-Cursor | - | 
wire GET /files/{name...} | - | - | - | 
wire GET /items/{id} | verbose | X-Token X-Trace | ETag X-Served-By | 403
wire GET /list | prefix | X-Cursor | - | 
wire POST /items/{id}/approve | - | - | - | 204
`
	if got := g.wireTable(); got != table {
		t.Errorf("surface:\n%s\nwant:\n%s", got, table)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func routeNames(routes []*wireRoute) string {
	var names []string
	for _, r := range routes {
		names = append(names, strings.TrimSpace(r.method+" "+r.path))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
