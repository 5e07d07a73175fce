package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestProbeRangeFP pins that LockCheck walks a range body statement by
// statement: an fsync between the body's own unlock and relock runs with
// nothing held, so the loop reports nothing.
func TestProbeRangeFP(t *testing.T) {
	const src = `package p

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
	const path = "daspos/internal/recast"
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check(path, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	findings, _ := RunTimed(fset, []*Package{{Path: path, Files: []*ast.File{f}, Info: info}}, []*Analyzer{LockCheck})
	for _, fd := range findings {
		t.Errorf("%d:%d %s", fd.Line, fd.Col, fd.Message)
	}
}
