package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism enforces the bit-for-bit reproducibility contract of the
// pipeline core: no wall-clock reads, no global math/rand, and no map
// iteration feeding a digest or serialized stream. The packages in scope
// are the ones whose output is archived, digested, or checkpointed —
// anywhere a hidden source of nondeterminism would change preserved bytes
// between two runs of identical code over identical inputs.
var Determinism = &Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall-clock reads, global math/rand, and map-order-dependent digests in the pipeline core",
	Why:      "a preserved analysis must re-run bit-for-bit years later; clocks, global RNG state, and map iteration order all change between runs",
	Suppress: "wallclock-ok",
	Match: matchPath(
		"internal/datamodel",
		"internal/sim",
		"internal/generator",
		"internal/rawdata",
		"internal/trigger",
		"internal/reco",
		"internal/skim",
		"internal/workflow",
		"internal/chain",
		"internal/checkpoint",
		"internal/cas",
		"internal/eventflow",
		"internal/fourvec",
		"internal/recast",
		"internal/queryserve",
	),
	Run: runDeterminism,
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s: its global state is seeded per process, not per event; derive streams from internal/xrand (suppress with //daspos:wallclock-ok)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := p.calleeFunc(n); fn != nil {
					switch fn.FullName() {
					case "time.Now", "time.Since":
						p.Reportf(n.Pos(), "call to %s reads the wall clock inside the deterministic core; metrics-only call sites must carry //daspos:wallclock-ok", fn.FullName())
					}
				}
			case *ast.RangeStmt:
				p.checkMapRangeDigest(n)
			}
			return true
		})
	}
}

// checkMapRangeDigest flags a range over a map whose body feeds a digest
// or serializer: iteration order is randomized per run, so the bytes the
// sink sees differ between identical executions. The fix is the idiom the
// codebase already uses — collect keys, sort, iterate the sorted slice.
func (p *Pass) checkMapRangeDigest(rng *ast.RangeStmt) {
	t := p.typeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink = p.digestSink(call)
		return sink == ""
	})
	if sink != "" {
		p.Reportf(rng.For, "map iteration feeds %s: iteration order is randomized per run; collect and sort the keys first", sink)
	}
}

// digestSink classifies a call as digest/serializer input, returning a
// description of the sink ("" when the call is harmless).
func (p *Pass) digestSink(call *ast.CallExpr) string {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if isSel {
		if recv := p.typeOf(sel.X); recv != nil {
			if isHashHash(recv) {
				return "a hash.Hash (" + sel.Sel.Name + ")"
			}
			if sel.Sel.Name == "Encode" {
				if named := namedPkgPath(recv); named == "encoding/gob" || named == "encoding/json" {
					return "a " + named + " encoder"
				}
			}
		}
	}
	fn := p.calleeFunc(call)
	if fn == nil {
		return ""
	}
	switch fn.FullName() {
	case "fmt.Fprintf", "fmt.Fprint", "fmt.Fprintln", "binary.Write", "encoding/binary.Write":
		if len(call.Args) > 0 && isHashHash(p.typeOf(call.Args[0])) {
			return "a hash.Hash (via " + fn.Name() + ")"
		}
	}
	return ""
}

// namedPkgPath returns the declaring package path of t's named type,
// dereferencing one pointer level; "" when t is unnamed or universe-scoped.
func namedPkgPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}
