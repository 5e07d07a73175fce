package analysis

// The golden-file harness: each analyzer runs over a testdata package and
// its findings are matched against // want "regexp" comments on the
// offending lines — the analysistest idiom, rebuilt on the stdlib-only
// loader. Every seeded violation must be reported, every reported finding
// must be expected, and suppressed or clean sites must stay silent.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"go/ast"
)

// wantRE matches one expectation: an optional pinned column, then the
// message regexp — `// want "re"`, `// want 17:"re"`, or backquoted.
// The regexp is matched against "analyzer: message", so multi-analyzer
// testdata packages can anchor an expectation to one analyzer by
// prefixing the pattern with its name.
var wantRE = regexp.MustCompile("//\\s*want\\s+(?:(\\d+):)?(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// expectation is one // want comment: a line (and optionally a column)
// that must produce a finding whose qualified message matches the regexp.
type expectation struct {
	file    string
	line    int
	col     int // 0 = any column
	re      *regexp.Regexp
	matched bool
}

// runAnalyzerTest loads testdata/<dir> as a package with the given
// virtual import path (so path-scoped analyzers see the package they
// would in the real tree) and diffs the analyzer's findings against the
// want expectations.
func runAnalyzerTest(t *testing.T, a *Analyzer, dir, virtualPath string) {
	t.Helper()
	runAnalyzersTest(t, []*Analyzer{a}, dir, virtualPath)
}

// runAnalyzersTest is the multi-analyzer form: the whole set runs over
// one testdata package, the way daspos-vet runs the suite over a real
// one, and every finding — including the framework's unused-suppression
// reports — must be expected.
func runAnalyzersTest(t *testing.T, as []*Analyzer, dir, virtualPath string) {
	t.Helper()
	for _, a := range as {
		if a.Match != nil && !a.Match(virtualPath) {
			t.Fatalf("virtual path %q is outside analyzer %s's scope", virtualPath, a.Name)
		}
	}
	names, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no testdata files under testdata/%s", dir)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	var expects []*expectation
	importSet := make(map[string]bool)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && path != "unsafe" {
				importSet[path] = true
			}
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				pat := m[2]
				if m[3] != "" {
					pat = m[3]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				col := 0
				if m[1] != "" {
					col, err = strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want column %q: %v", name, i+1, m[1], err)
					}
				}
				expects = append(expects, &expectation{file: name, line: i + 1, col: col, re: re})
			}
		}
	}

	exports := make(map[string]string)
	if len(importSet) > 0 {
		imports := make([]string, 0, len(importSet))
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		if _, exports, err = goList(".", imports); err != nil {
			t.Fatal(err)
		}
	}
	info, err := typecheck(fset, exportImporter(fset, exports), virtualPath, files)
	if err != nil {
		t.Fatal(err)
	}

	findings, _ := RunTimed(fset, []*Package{{Path: virtualPath, Files: files, Info: info}}, as)
	for _, f := range findings {
		qualified := f.Analyzer + ": " + f.Message
		matched := false
		for _, e := range expects {
			if !e.matched && e.file == f.File && e.line == f.Line &&
				(e.col == 0 || e.col == f.Col) && e.re.MatchString(qualified) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range expects {
		if !e.matched {
			if e.col > 0 {
				t.Errorf("%s:%d:%d: no finding matching %q at that column", e.file, e.line, e.col, e.re)
			} else {
				t.Errorf("%s:%d: no finding matching %q", e.file, e.line, e.re)
			}
		}
	}
}
