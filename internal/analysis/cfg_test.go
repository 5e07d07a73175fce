package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as the body of a function and returns it.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// reachable walks the graph from Entry and reports whether Exit is in
// the reachable set — the structural fact ReachesExit exposes.
func TestCFGReachesExit(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool
	}{
		{"straight line", "x := 1\n_ = x", true},
		{"early return", "return", true},
		{"infinite for", "for {\n}", false},
		{"for with break", "for {\nbreak\n}", true},
		{"for with condition", "for i := 0; i < 3; i++ {\n}", true},
		{"infinite for behind if", "if true {\nfor {\n}\n}", true}, // the else path falls through
		{"labeled break from nested loop", "outer:\nfor {\nfor {\nbreak outer\n}\n}", true},
		{"goto forward", "goto done\nfor {\n}\ndone:\nreturn", true},
		{"select without default", "var c chan int\nselect {\ncase <-c:\n}", true},
		{"empty select blocks forever", "select {\n}", false},
		// panic edges into Exit: deferred unlocks run during unwinding,
		// and a panicking goroutine terminates rather than leaking.
		{"panic only", "panic(\"boom\")", true},
		{"switch all paths return", "switch 1 {\ncase 1:\nreturn\ndefault:\nreturn\n}", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := BuildCFG(parseBody(t, tc.body))
			if got := g.ReachesExit(); got != tc.want {
				t.Errorf("ReachesExit() = %v, want %v\nbody:\n%s", got, tc.want, tc.body)
			}
		})
	}
}

func TestCFGNilBody(t *testing.T) {
	g := BuildCFG(nil)
	if !g.ReachesExit() {
		t.Error("nil body must reach exit (external functions return)")
	}
}

func TestCFGCollectsDefers(t *testing.T) {
	g := BuildCFG(parseBody(t, "defer close(make(chan int))\nif true {\ndefer print()\n}"))
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(g.Defers))
	}
}

// A branchy body must produce distinct blocks with edges that reconverge,
// and every block must appear in Blocks exactly once.
func TestCFGBlockStructure(t *testing.T) {
	g := BuildCFG(parseBody(t, "x := 0\nif x > 0 {\nx = 1\n} else {\nx = 2\n}\n_ = x"))
	seen := make(map[*CFGBlock]bool)
	for i, blk := range g.Blocks {
		if seen[blk] {
			t.Fatalf("block %d appears twice in Blocks", i)
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			if !seen[s] && !contains(g.Blocks, s) {
				t.Fatalf("successor of block %d not in Blocks", i)
			}
		}
	}
	if !seen[g.Entry] || !seen[g.Exit] {
		t.Fatal("Entry or Exit missing from Blocks")
	}
	if len(g.Exit.Succs) != 0 {
		t.Fatalf("Exit has %d successors, want 0", len(g.Exit.Succs))
	}
}

func contains(blocks []*CFGBlock, b *CFGBlock) bool {
	for _, x := range blocks {
		if x == b {
			return true
		}
	}
	return false
}

// ForwardFlow over a counting domain: the solver must merge at joins and
// iterate loops to a fixpoint, not diverge or stop early.
func TestForwardFlowJoinAndLoop(t *testing.T) {
	// Domain: set of assigned variable names (may-assign analysis).
	type state = map[string]bool
	transfer := func(n ast.Node, in state) state {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return in
		}
		out := make(state, len(in)+1)
		for k := range in {
			out[k] = true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return out
	}
	merge := func(a, b state) state {
		out := make(state, len(a)+len(b))
		for k := range a {
			out[k] = true
		}
		for k := range b {
			out[k] = true
		}
		return out
	}
	equal := func(a, b state) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}

	g := BuildCFG(parseBody(t, `
a := 1
if a > 0 {
	b := 2
	_ = b
} else {
	c := 3
	_ = c
}
for a < 10 {
	d := 4
	_ = d
}
return`))
	in := ForwardFlow(g, state{}, transfer, merge, equal)
	exit, ok := in[g.Exit]
	if !ok {
		t.Fatal("Exit unreachable in solved flow")
	}
	// Everything assigned on some path may reach exit; the loop body's
	// assignment must have propagated around the back edge.
	for _, name := range []string{"a", "b", "c", "d"} {
		if !exit[name] {
			t.Errorf("exit state missing may-assigned %q: %v", name, exit)
		}
	}
}

// An unreachable block must not appear in the solved map.
func TestForwardFlowUnreachable(t *testing.T) {
	g := BuildCFG(parseBody(t, "return\nx := 1\n_ = x"))
	in := ForwardFlow(g, 0,
		func(n ast.Node, s int) int { return s + 1 },
		func(a, b int) int { return max(a, b) },
		func(a, b int) bool { return a == b },
	)
	if _, ok := in[g.Exit]; !ok {
		t.Fatal("Exit must be reachable through the return")
	}
	for blk, st := range in {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" {
					t.Errorf("dead assignment block solved with state %d", st)
				}
			}
		}
	}
}
