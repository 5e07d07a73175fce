package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, typechecked module package.
type Package struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching the patterns with `go list`,
// parses their (non-test) sources, and typechecks them against the
// compiler's export data for every dependency — the whole pipeline stays
// inside the standard library and the go toolchain the module already
// requires. dir is the working directory for the go command (any
// directory inside the module).
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, lp := range pkgs {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		info, err := typecheck(fset, imp, lp.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, &Package{
			Path:  lp.ImportPath,
			Files: files,
			Info:  info,
		})
	}
	return fset, out, nil
}

// goList runs `go list -export -deps -json` over the patterns and returns
// the target (non-dependency) packages plus the export-data location of
// every package in the closure.
func goList(dir string, patterns []string) ([]*listPackage, map[string]string, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("analysis: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			cp := lp
			targets = append(targets, &cp)
		}
	}
	return targets, exports, nil
}

// exportImporter resolves imports from the export data `go list -export`
// left in the build cache — the same type information the compiler used,
// with no source re-typechecking of dependencies.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		loc, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(loc)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typecheck runs go/types over one package's parsed files.
func typecheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", path, err)
	}
	return info, nil
}
