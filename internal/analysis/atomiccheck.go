package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicCheck enforces the memory-discipline rule the race detector only
// proves when an interleaving happens to hit it: a struct field accessed
// through sync/atomic anywhere must be accessed through sync/atomic
// everywhere — one plain load next to an atomic.AddInt64 is a data race
// that `-race` reports only if the scheduler stacks the two on top of each
// other. The typed atomic.Int64 wrappers make this unrepresentable; this
// check exists for the pointer-style call sites. (Copying a lock-bearing
// value is `go vet`'s copylocks check, which the gate runs too.)
//
// A deliberate plain access before the value is published (a constructor
// initialising the field, say) is annotated //daspos:atomic-ok.
var AtomicCheck = &Analyzer{
	Name:     "atomiccheck",
	Doc:      "no mixed atomic/plain access to the same field",
	Why:      "mixed atomic and plain access is a data race the race detector only catches on a lucky interleaving",
	Suppress: "atomic-ok",
	Match: matchPath(
		"internal/queryserve",
		"internal/recast",
		"internal/cluster",
		"internal/node",
		"internal/catalog",
		"internal/hepdata",
		"internal/eventflow",
	),
	Run: (*Pass).checkMixedAtomics,
}

// checkMixedAtomics finds fields (and package variables) that appear as
// &x arguments to sync/atomic functions, then reports every plain access
// to the same object.
func (p *Pass) checkMixedAtomics() {
	atomicObjs := make(map[types.Object]string) // object -> atomic fn name
	atomicArgNodes := make(map[ast.Node]bool)   // the &x.f operand exprs themselves
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || len(call.Args) == 0 {
				return true
			}
			ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			target := ast.Unparen(ue.X)
			if obj := p.accessedObject(target); obj != nil {
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = fn.Name()
				}
				atomicArgNodes[target] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if atomicArgNodes[n] {
				return false // the &x.f operand of the atomic call itself
			}
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			switch e.(type) {
			case *ast.SelectorExpr, *ast.Ident:
			default:
				return true
			}
			obj := p.accessedObject(e)
			if obj == nil {
				return true
			}
			if via, mixed := atomicObjs[obj]; mixed {
				p.Reportf(e.Pos(), "plain access to %s, which is also accessed via atomic.%s: the compiler and CPU may tear, cache, or reorder the plain access freely — use the atomic API at every site (or migrate the field to the typed atomic wrappers), or //daspos:atomic-ok for provably pre-publication access", obj.Name(), via)
				return false // don't re-report the selector's ident
			}
			return true
		})
	}
}

// accessedObject resolves an expression to the field or variable object
// it reads/writes: the selection's field for x.f, the use/def for a bare
// identifier. Nil when the expression is something else (calls, index
// results, conversions).
func (p *Pass) accessedObject(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return nil
	case *ast.Ident:
		// Uses only: a Defs entry is the declaration itself (a struct
		// field line, a var spec), not an access.
		if obj := p.Info.Uses[x]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
		}
	}
	return nil
}
