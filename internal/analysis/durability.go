package analysis

import (
	"go/ast"
	"go/token"
)

// Durability enforces the commit ordering that makes the journal and the
// durable blob store (cas.Dir, under the checkpoint ledger's objects and
// the directory archive) crash-safe: a rename is only an atomic commit
// point if the payload was fsynced first, and a journal append only
// announces state that is already durable if the append is fsynced in the
// same operation. The analyzer is per-function and order-sensitive: it
// flags os.Rename calls with no earlier Sync in the function, and os.File
// writes in functions that never Sync at all. The two packages it polices
// are the only ones that write a file on a durable path.
var Durability = &Analyzer{
	Name:     "durability",
	Doc:      "enforce temp-write→fsync→rename ordering and fsynced journal appends in the durable stores",
	Why:      "a crash between write and fsync loses bytes the journal already announced; the checkpoint recovery proof assumes rename commits only durable payloads",
	Suppress: "fsync-ok",
	Match: matchPath(
		"internal/journal",
		"internal/cas",
	),
	Run: runDurability,
}

// fsEvent is one ordering-relevant operation inside a function body.
type fsEvent struct {
	pos  token.Pos
	kind string // "rename", "sync", "write"
}

func runDurability(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkFuncDurability(fd)
		}
	}
}

func (p *Pass) checkFuncDurability(fd *ast.FuncDecl) {
	var events []fsEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := p.calleeFunc(call); fn != nil && fn.FullName() == "os.Rename" {
			events = append(events, fsEvent{call.Pos(), "rename"})
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Sync":
			// Any Sync() error method counts — *os.File and any
			// fault-injection or recording wrapper around it.
			if hasMethod(p.typeOf(sel.X), "Sync", nil, []string{"error"}) {
				events = append(events, fsEvent{call.Pos(), "sync"})
			}
		case "Write", "WriteString":
			if namedPkgPath(p.typeOf(sel.X)) == "os" {
				events = append(events, fsEvent{call.Pos(), "write"})
			}
		}
		return true
	})

	synced := false
	var firstWrite token.Pos
	sawWrite := false
	for _, ev := range events {
		switch ev.kind {
		case "sync":
			synced = true
		case "rename":
			if !synced {
				p.Reportf(ev.pos, "os.Rename with no preceding Sync in this function: the rename commits a payload that may not be durable yet (order: temp write → fsync → rename → dir fsync)")
			}
		case "write":
			if !sawWrite {
				sawWrite = true
				firstWrite = ev.pos
			}
		}
	}
	if sawWrite && !synced {
		p.Reportf(firstWrite, "os.File write with no Sync anywhere in this function: a journal append must be fsynced before the state it announces is trusted")
	}
}
