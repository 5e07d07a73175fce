package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func probeRun(t *testing.T, src string) []Finding {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("daspos/internal/recast", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := RunTimed(fset, []*Package{{Path: "daspos/internal/recast", Files: []*ast.File{f}, Types: pkg, Info: info}}, []*Analyzer{LockCheck})
	return findings
}

func TestProbeRangeFP(t *testing.T) {
	src := `package p

import ("sync"; "os")

type S struct{ mu sync.Mutex; files []*os.File }

func (s *S) flushAll() {
	s.mu.Lock()
	for _, f := range s.files {
		s.mu.Unlock()
		f.Sync()
		s.mu.Lock()
	}
	s.mu.Unlock()
}
`
	for _, fd := range probeRun(t, src) {
		t.Logf("%d:%d %s", fd.Line, fd.Col, fd.Message)
	}
}
