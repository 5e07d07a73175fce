package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CloseCheck enforces resource hygiene on the write paths: a discarded
// Close() or Flush() error on a writer is a silent data-loss bug, because
// buffered bytes (a file trailer, a deflate tail, a journal line) are
// flushed at close time and a failure there leaves a truncated artifact
// that nothing ever reports. Deferred closes are exempt: they are the
// best-effort cleanup idiom on error paths, where the primary error is
// already in flight.
var CloseCheck = &Analyzer{
	Name:     "closecheck",
	Doc:      "Close/Flush errors on writers must be checked; a failed close truncates the artifact silently",
	Why:      "writers flush buffered bytes at Close/Flush; discarding that error preserves a truncated artifact while reporting success — the worst failure an archive can have",
	Suppress: "close-ok",
	Match: func(path string) bool {
		if strings.Contains(path, "/cmd/") {
			return true
		}
		return matchPath(
			"internal/datamodel",
			"internal/cas",
			"internal/journal",
			"internal/checkpoint",
			"internal/archive",
			"internal/workflow",
			"internal/chain",
			"internal/rawdata",
			"internal/recast",
			"internal/node",
			"internal/cluster",
			"internal/eventflow",
			"internal/queryserve",
		)(path)
	},
	Run: runCloseCheck,
}

func runCloseCheck(p *Pass) {
	for _, f := range p.Files {
		deferred := deferredRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if deferred.contains(call.Pos()) {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Close" && name != "Flush" {
				return true
			}
			recv := p.typeOf(sel.X)
			if !returnsOnlyError(p, sel) || !isWriter(recv) {
				return true
			}
			p.Reportf(call.Pos(), "%s on a writer discarded: a failed %s drops buffered bytes and the caller records a truncated artifact as good (check the error, or //daspos:close-ok for best-effort paths)", name+"()", name)
			return true
		})
	}
}

// returnsOnlyError reports whether the selected method returns exactly
// (error).
func returnsOnlyError(p *Pass, sel *ast.SelectorExpr) bool {
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && tupleMatches(sig.Results(), []string{"error"})
}

// posRanges is a set of source intervals.
type posRanges []struct{ lo, hi token.Pos }

func (r posRanges) contains(p token.Pos) bool {
	for _, iv := range r {
		if p >= iv.lo && p <= iv.hi {
			return true
		}
	}
	return false
}

// deferredRanges collects the extents of every deferred call — both
// `defer x.Close()` and the bodies of deferred function literals, whose
// closes are cleanup-on-error by construction.
func deferredRanges(f *ast.File) posRanges {
	var out posRanges
	ast.Inspect(f, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		out = append(out, struct{ lo, hi token.Pos }{def.Call.Pos(), def.Call.End()})
		return true
	})
	return out
}
