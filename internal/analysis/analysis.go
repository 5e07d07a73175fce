// Package analysis is the stdlib-only static-analysis framework behind
// cmd/daspos-vet: it loads the module's packages (go list + go/parser +
// go/types, no external dependencies), runs a set of project-specific
// analyzers over the typed syntax trees, and reports findings that each
// name the preservation invariant they guard.
//
// PRs 1–4 established the invariants by convention: seeded xrand streams
// instead of wall clocks and global RNGs, fsync-before-rename commit
// ordering in the durable stores, the transient/permanent error taxonomy
// at every retry boundary, context propagation through long-running
// services, and checked Close on write paths. Nothing but review kept the
// next change from silently violating them. The analyzers here turn those
// prose rules into machine-checked ones, per the DPHEP/HSF observation
// that reproducibility guarantees rot unless continuously validated.
//
// A finding can be suppressed at a call site that is deliberately exempt
// (a metrics-only timer, a best-effort cleanup) with a line comment of the
// form //daspos:<token>, where <token> is the suppression token the
// analyzer names in its finding (for example //daspos:wallclock-ok). The
// directive applies to findings on its own line or on the line directly
// below, so it can sit on its own line above a long statement.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer report: a position, the specific defect, and the
// one-line rationale for why the invariant exists at all.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	Why      string         `json:"why"`
}

// String renders the finding in the file:line:col style editors understand.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer (the -only flag selects by it).
	Name string
	// Doc is a short description of what the analyzer enforces.
	Doc string
	// Why is the one-line rationale attached to every finding: the reason
	// the invariant exists, not just the rule that was broken.
	Why string
	// Suppress is the //daspos:<token> comment that exempts a call site.
	Suppress string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil means every package.
	Match func(path string) bool
	// Run inspects one package and reports through the pass.
	Run func(p *Pass)
}

// Pass is one (analyzer, package) execution: the typed syntax plus the
// reporting and suppression machinery.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	findings   *[]Finding
	directives *directiveSet
}

// Reportf records a finding at pos unless a //daspos:<token> suppression
// comment covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.lineSuppressed(position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Why:      p.Analyzer.Why,
	})
}

// directive is one //daspos:<token> comment in a package, with the
// bookkeeping the unused-suppression check needs: a directive that never
// suppresses a finding is itself a finding, so stale annotations cannot
// accumulate as the code under them evolves.
type directive struct {
	token string
	pos   token.Position
	used  bool
}

// directiveSet indexes a package's suppression directives.
type directiveSet struct {
	byLine map[string]map[string]map[int]*directive // token -> file -> line
	all    []*directive
}

// collectDirectives scans a package's comments for //daspos:<token>
// directives. The token runs to the first space; explanatory prose after
// it is encouraged and ignored.
func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	ds := &directiveSet{byLine: make(map[string]map[string]map[int]*directive)}
	const prefix = "//daspos:"
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, prefix)
				tok := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					tok = rest[:i]
				}
				if tok == "" {
					continue
				}
				cp := fset.Position(c.Pos())
				d := &directive{token: tok, pos: cp}
				files := ds.byLine[tok]
				if files == nil {
					files = make(map[string]map[int]*directive)
					ds.byLine[tok] = files
				}
				lines := files[cp.Filename]
				if lines == nil {
					lines = make(map[int]*directive)
					files[cp.Filename] = lines
				}
				lines[cp.Line] = d
				ds.all = append(ds.all, d)
			}
		}
	}
	return ds
}

// lookup finds a directive for token covering line (the directive's own
// line or the line directly above the finding).
func (ds *directiveSet) lookup(token, file string, line int) *directive {
	lines := ds.byLine[token][file]
	if d := lines[line]; d != nil {
		return d
	}
	return lines[line-1]
}

// lineSuppressed reports whether the analyzer's suppression token appears
// on the finding's line or the line directly above it, and marks the
// directive used.
func (p *Pass) lineSuppressed(pos token.Position) bool {
	if p.directives == nil || p.Analyzer.Suppress == "" {
		return false
	}
	d := p.directives.lookup(p.Analyzer.Suppress, pos.Filename, pos.Line)
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// typeOf resolves an expression's static type, nil when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), nil for builtins, conversions, and
// function-typed variables.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// rootIdent walks to the base identifier of an assignable expression:
// x, x.f, x[i], *x all root at x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Durability,
		ErrClass,
		CtxProp,
		CloseCheck,
		LockCheck,
		LeakCheck,
		AtomicCheck,
	}
}

// AnalyzerTiming is one analyzer's cumulative wall time across a run —
// surfaced through daspos-vet -json so an analyzer whose cost regresses
// is visible in CI before it slows every pre-merge gate.
type AnalyzerTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"millis"`
}

// RunTimed executes the analyzers over the loaded packages and returns
// every finding, sorted by position, plus per-analyzer wall-time accounting
// in the analyzers' reporting order. Analyzers whose Match rejects a
// package's import path skip it.
func RunTimed(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	var findings []Finding
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		dirs := collectDirectives(fset, pkg.Files)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      pkg.Files,
				Info:       pkg.Info,
				findings:   &findings,
				directives: dirs,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		findings = append(findings, unusedDirectives(pkg, dirs, analyzers)...)
	}
	sortFindings(findings)
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Analyzer: a.Name, Millis: float64(elapsed[a.Name].Microseconds()) / 1000})
	}
	return findings, timings
}

// SuppressReporter is the name under which the framework reports
// suppression-inventory findings: a //daspos:<token> directive that no
// longer suppresses anything, or a token no analyzer owns.
const SuppressReporter = "suppress"

const suppressWhy = "a suppression comment that no longer suppresses anything is a stale exemption: it documents an invariant violation that no longer exists, and it will silently swallow the next real finding on its line"

// unusedDirectives audits a package's suppression inventory after every
// analyzer ran: each directive must have suppressed at least one finding
// of the analyzer that owns its token. Tokens are only audited when
// their owning analyzer actually ran on the package (so daspos-vet -only
// never misreports another analyzer's annotations), and tokens no
// analyzer in the full suite owns are typos worth naming loudly.
func unusedDirectives(pkg *Package, dirs *directiveSet, ran []*Analyzer) []Finding {
	owners := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		if a.Suppress != "" {
			owners[a.Suppress] = a
		}
	}
	audited := make(map[string]bool)
	for _, a := range ran {
		if a.Suppress != "" && (a.Match == nil || a.Match(pkg.Path)) {
			audited[a.Suppress] = true
		}
	}
	var out []Finding
	report := func(d *directive, format string, args ...any) {
		out = append(out, Finding{
			Analyzer: SuppressReporter,
			Pos:      d.pos,
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Col:      d.pos.Column,
			Message:  fmt.Sprintf(format, args...),
			Why:      suppressWhy,
		})
	}
	for _, d := range dirs.all {
		owner, known := owners[d.token]
		if !known {
			report(d, "unknown suppression token %q: no analyzer owns it, so it suppresses nothing (valid tokens: %s)", d.token, strings.Join(suppressTokens(), ", "))
			continue
		}
		if audited[d.token] && !d.used {
			report(d, "unused suppression //daspos:%s: %s reports no finding on this line anymore — the exemption is stale; delete it (or re-justify it against the current code)", d.token, owner.Name)
		}
	}
	return out
}

// suppressTokens lists the suite's suppression tokens in reporting order.
func suppressTokens() []string {
	var out []string
	for _, a := range Analyzers() {
		if a.Suppress != "" {
			out = append(out, a.Suppress)
		}
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// matchPath builds a Match function accepting packages whose import path
// ends in one of the given path suffixes (or lives below one of them).
func matchPath(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if strings.HasSuffix(path, s) || strings.Contains(path, s+"/") {
				return true
			}
		}
		return false
	}
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errType, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errType != nil && types.Implements(t, errType)
}

// hasMethod reports whether t (or *t) has a method with the given name
// whose parameter and result types render to the given strings (parameter
// names are irrelevant). Type strings qualify package names by name, e.g.
// "context.Context".
func hasMethod(t types.Type, name string, params, results []string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return tupleMatches(sig.Params(), params) && tupleMatches(sig.Results(), results)
}

func tupleMatches(tup *types.Tuple, want []string) bool {
	if tup.Len() != len(want) {
		return false
	}
	qual := func(p *types.Package) string { return p.Name() }
	for i := 0; i < tup.Len(); i++ {
		if types.TypeString(tup.At(i).Type(), qual) != want[i] {
			return false
		}
	}
	return true
}

// isHashHash reports whether t looks like a hash.Hash implementation: the
// structural check keeps analyzers independent of whether the analyzed
// package imports the hash package directly.
func isHashHash(t types.Type) bool {
	return hasMethod(t, "Sum", []string{"[]byte"}, []string{"[]byte"}) &&
		hasMethod(t, "BlockSize", nil, []string{"int"}) &&
		hasMethod(t, "Write", []string{"[]byte"}, []string{"int", "error"})
}

// isWriter reports whether t has a Write([]byte) (int, error) method —
// the marker of a write path whose Close/Flush error carries data loss.
func isWriter(t types.Type) bool {
	return hasMethod(t, "Write", []string{"[]byte"}, []string{"int", "error"})
}
