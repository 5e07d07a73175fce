package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck guards the latency and liveness discipline of the hot-path
// critical sections. PRs 6–9 put a mutex at the center of every serving
// structure — the query index and cache shards, the recast fair queue,
// the cluster ring — and the read path's sub-millisecond budget only
// holds if those sections stay compute-only: one fsync or network call
// under a shard lock convoys every other request behind a disk. The
// analyzer runs a forward dataflow over the shared CFG layer to know
// which locks are held at every statement, and reports
//
//   - blocking operations (file I/O, fsync, network/HTTP, channel
//     send/recv outside a select-with-default, time.Sleep, WaitGroup/Cond
//     waits, and context-taking backend calls) executed while a
//     sync.Mutex or sync.RWMutex is held;
//   - a Lock/RLock with a path to return on which no Unlock/RUnlock runs
//     and no defer covers it — an eventual deadlock, found structurally
//     instead of by an interleaving-lucky race test;
//   - a write Lock on a sync.RWMutex in a provably read-only accessor,
//     which serializes readers that RLock would let through.
//
// A deliberate blocking section — package journal writes and fsyncs
// under its mutex because a record must be durable before the next
// appender interleaves — is annotated //daspos:lock-ok with its
// justification.
var LockCheck = &Analyzer{
	Name:     "lockcheck",
	Doc:      "no blocking operations while a mutex is held; unlock on every return path; RLock for read-only accessors",
	Why:      "a blocking call under a hot-path mutex convoys every contending request behind one disk or network round-trip, and a return path without an unlock is an eventual deadlock",
	Suppress: "lock-ok",
	Match: matchPath(
		"internal/queryserve",
		"internal/recast",
		"internal/journal",
		"internal/cluster",
		"internal/node",
		"internal/catalog",
		"internal/hepdata",
		"internal/eventflow",
	),
	Run: runLockCheck,
}

// lockHold is one held lock in the dataflow state: how it was taken,
// where, and whether a defer releases it at function exit.
type lockHold struct {
	mode     byte // 'w' (Lock) or 'r' (RLock)
	pos      token.Pos
	name     string
	deferred bool // a defer statement releases it on every exit
}

// lockState maps canonical lock expressions to their hold. States are
// treated as immutable values by the transfer function (copy-on-write).
type lockState map[string]lockHold

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func lockStateEqual(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

// lockStateMerge joins two path states: a lock held on either path is
// may-held (union); it is only deferred-released if both paths say so,
// and the earliest acquisition position wins for reporting.
func lockStateMerge(a, b lockState) lockState {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := a.clone()
	for k, vb := range b {
		va, ok := out[k]
		if !ok {
			out[k] = vb
			continue
		}
		merged := va
		if vb.pos < merged.pos {
			merged.pos = vb.pos
		}
		merged.deferred = va.deferred && vb.deferred
		if vb.mode == 'w' {
			merged.mode = 'w'
		}
		out[k] = merged
	}
	return out
}

func runLockCheck(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.lockCheckFunc(fd)
			// Function literals get their own CFG each: a closure runs
			// under whatever locks its caller holds at call time, which
			// intra-procedural analysis cannot see, so each body is
			// analyzed from an empty state.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					p.lockCheckBody(lit.Body)
				}
				return true
			})
		}
	}
}

// lockCheckFunc analyzes one declared function: the dataflow pass over
// its body plus the read-only-accessor check when it is a method.
func (p *Pass) lockCheckFunc(fd *ast.FuncDecl) {
	p.lockCheckBody(fd.Body)
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	// Write-Lock acquisitions on RWMutexes, outside nested literals, feed
	// the read-only-accessor check.
	var rwLocks []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, kind := p.mutexCall(es.X); call != nil && kind == "Lock" && p.isRWMutexLock(call) {
				rwLocks = append(rwLocks, call)
			}
		}
		return true
	})
	if len(rwLocks) > 0 {
		p.checkReadOnlyAccessor(fd, rwLocks)
	}
}

// lockCheckBody runs the lock dataflow over one body and reports
// blocking-under-lock and unlock-on-every-path findings.
func (p *Pass) lockCheckBody(body *ast.BlockStmt) {
	g := BuildCFG(body)
	guarded := p.nonBlockingComms(body)

	transfer := func(n ast.Node, in lockState) lockState {
		call, kind := p.lockOp(n)
		if call == nil {
			return in
		}
		key := exprKey(lockRecvExpr(call))
		out := in.clone()
		switch kind {
		case "Lock", "RLock":
			mode := byte('w')
			if kind == "RLock" {
				mode = 'r'
			}
			out[key] = lockHold{mode: mode, pos: call.Pos(), name: exprDisplay(lockRecvExpr(call))}
		case "Unlock", "RUnlock":
			delete(out, key)
		case "defer-Unlock", "defer-RUnlock":
			if h, ok := out[key]; ok {
				h.deferred = true
				out[key] = h
			}
		}
		return out
	}

	in := ForwardFlow(g, lockState{}, transfer, lockStateMerge, lockStateEqual)

	// Re-run the transfer inside each reachable block to recover the
	// state at every node, and scan held regions for blocking operations.
	for _, blk := range g.Blocks {
		state, reachable := in[blk]
		if !reachable {
			continue
		}
		for _, n := range blk.Nodes {
			if len(state) > 0 {
				p.reportBlocking(n, state, guarded)
			}
			state = transfer(n, state)
		}
	}

	// Any lock still held when control reaches Exit, with no defer
	// releasing it, has a return path that leaks it.
	if exit, ok := in[g.Exit]; ok {
		for _, h := range exit {
			if !h.deferred {
				p.Reportf(h.pos, "%s is not released on every return path: a caller blocking on it after that return deadlocks (unlock before each return, defer the unlock, or //daspos:lock-ok with the invariant that makes it safe)", h.name)
			}
		}
	}
}

// lockOp classifies a CFG node as a mutex operation. It recognizes
// x.Lock/RLock/Unlock/RUnlock statements on sync.Mutex/RWMutex values
// (including embedded ones) and the deferred forms, returning the call
// and the operation kind ("" when the node is not a lock operation).
func (p *Pass) lockOp(n ast.Node) (*ast.CallExpr, string) {
	switch st := n.(type) {
	case *ast.ExprStmt:
		if call, kind := p.mutexCall(st.X); call != nil {
			return call, kind
		}
	case *ast.DeferStmt:
		if call, kind := p.mutexCall(st.Call); call != nil && (kind == "Unlock" || kind == "RUnlock") {
			return call, "defer-" + kind
		}
		// defer func() { ...; mu.Unlock() }() — a release wrapped in a
		// cleanup literal still covers every exit.
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			var found *ast.CallExpr
			var foundKind string
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if es, ok := m.(*ast.ExprStmt); ok {
					if call, kind := p.mutexCall(es.X); call != nil && (kind == "Unlock" || kind == "RUnlock") {
						found, foundKind = call, kind
						return false
					}
				}
				return true
			})
			if found != nil {
				return found, "defer-" + foundKind
			}
		}
	}
	return nil, ""
}

// mutexCall returns the call and method name when e is a call of
// Lock/Unlock/RLock/RUnlock on a sync.Mutex or sync.RWMutex.
func (p *Pass) mutexCall(e ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || !isSyncLockMethod(fn) {
		return nil, ""
	}
	return call, sel.Sel.Name
}

// isRWMutexLock reports whether the Lock call's receiver is a
// sync.RWMutex (as opposed to a plain Mutex, which has no read mode).
func (p *Pass) isRWMutexLock(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	return fn != nil && namedSyncType(recvType(fn)) == "RWMutex"
}

// isSyncLockMethod reports whether fn is declared on sync.Mutex or
// sync.RWMutex.
func isSyncLockMethod(fn *types.Func) bool {
	switch namedSyncType(recvType(fn)) {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// recvType returns fn's receiver type with any pointer stripped, nil for
// non-methods.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t
}

// namedSyncType returns the type's name when it is a named type from the
// sync package ("" otherwise).
func namedSyncType(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return obj.Name()
}

// lockRecvExpr returns the expression the lock method is called on:
// x.mu for x.mu.Lock(), x for an embedded x.Lock().
func lockRecvExpr(call *ast.CallExpr) ast.Expr {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return sel.X
}

// exprKey renders an expression to a canonical dataflow key: identifier
// and selector chains verbatim, index expressions collapsed so s.shard[i]
// and s.shard[j] conservatively share a key.
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprKey(x.X) + "[#]"
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.CallExpr:
		return exprKey(x.Fun) + "()"
	}
	return fmt.Sprintf("?%T", e)
}

// exprDisplay renders the lock expression for messages; same shape as
// exprKey but keeping the index expression spelled out is not worth the
// churn, so they share an implementation.
func exprDisplay(e ast.Expr) string { return exprKey(e) }

// nonBlockingComms collects the positions of channel operations that are
// comm clauses of a select WITH a default case — those never block, the
// runtime takes default instead.
func (p *Pass) nonBlockingComms(body *ast.BlockStmt) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm.Pos()] = true
			}
		}
		return true
	})
	return out
}

// reportBlocking scans one CFG node for blocking operations and reports
// each with the locks held there. Nested function literals are skipped —
// they execute later, under their own state.
func (p *Pass) reportBlocking(n ast.Node, held lockState, guarded map[token.Pos]bool) {
	names := heldNames(held)
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !guarded[x.Pos()] {
				p.Reportf(x.Pos(), "channel send while %s is held: the send blocks until a receiver is ready, and every contender on the lock blocks behind it (move it after the unlock, guard it with a select+default, or //daspos:lock-ok with the justification)", names)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !guarded[x.Pos()] {
				p.Reportf(x.Pos(), "channel receive while %s is held: the receive blocks until a sender is ready, holding the lock for an unbounded time (//daspos:lock-ok if a paired sender is guaranteed)", names)
			}
		case *ast.CallExpr:
			if what := p.blockingCall(x); what != "" {
				p.Reportf(x.Pos(), "%s while %s is held: the lock is pinned for the full operation and every contender convoys behind it (hoist it out of the critical section, or //daspos:lock-ok with the invariant that requires it)", what, names)
			}
		}
		return true
	})
}

func heldNames(held lockState) string {
	names := make([]string, 0, len(held))
	for _, h := range held {
		names = append(names, h.name)
	}
	if len(names) == 1 {
		return names[0]
	}
	sortStrings(names)
	return strings.Join(names, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// blockingCall classifies a call as a blocking operation, returning a
// short description ("" when the call cannot block). The classification
// is package-based: bytes.Buffer writes are memory, os.File writes are a
// disk round-trip.
func (p *Pass) blockingCall(call *ast.CallExpr) string {
	fn := p.calleeFunc(call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	recv := recvType(fn)
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	// Methods: classified by the receiver's defining package.
	if recv != nil {
		if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
			rp := named.Obj().Pkg().Path()
			rn := named.Obj().Name()
			switch {
			case rp == "os" && rn == "File":
				switch name {
				case "Write", "WriteString", "WriteAt", "Read", "ReadAt", "ReadFrom", "Sync", "Truncate", "Seek", "Close", "Chmod", "Stat":
					if name == "Sync" {
						return "fsync"
					}
					return "file " + name
				}
			case rp == "bufio":
				switch name {
				case "Write", "WriteString", "WriteByte", "WriteRune", "Flush", "Read", "ReadString", "ReadBytes", "ReadByte", "ReadRune", "ReadSlice", "ReadLine":
					return "buffered I/O (" + rn + "." + name + ")"
				}
			case rp == "sync":
				if (rn == "WaitGroup" || rn == "Cond") && name == "Wait" {
					return rn + ".Wait"
				}
			case rp == "net/http":
				switch rn {
				case "Client":
					switch name {
					case "Do", "Get", "Post", "PostForm", "Head":
						return "HTTP request (Client." + name + ")"
					}
				case "Server":
					switch name {
					case "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS", "Shutdown", "Close":
						return "HTTP server call (Server." + name + ")"
					}
				case "Transport":
					if name == "RoundTrip" {
						return "HTTP round trip"
					}
				}
			case rp == "net":
				switch name {
				case "Read", "Write", "Close", "Accept":
					return "network " + name
				}
			}
		}
		// Interface methods land here with the interface's package.
		switch pkgPath {
		case "io":
			switch name {
			case "Read", "Write", "Close", "ReadFrom", "WriteTo":
				return "I/O on an io interface (" + name + ")"
			}
		case "net/http":
			switch name {
			case "Write", "WriteHeader", "Flush":
				return "HTTP response " + name
			case "RoundTrip":
				return "HTTP round trip"
			}
		case "net":
			switch name {
			case "Read", "Write", "Close", "Accept":
				return "network " + name
			}
		}
	}

	// Package-level functions.
	switch pkgPath {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir", "Truncate", "Stat", "Lstat", "Chtimes":
			return "file I/O (os." + name + ")"
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
			return "I/O (io." + name + ")"
		}
	case "path/filepath":
		switch name {
		case "Walk", "WalkDir", "Glob":
			return "filesystem walk (filepath." + name + ")"
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
			return "HTTP request (http." + name + ")"
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "DialTCP", "DialUDP", "Listen", "ListenTCP", "ListenPacket":
			return "network dial/listen (net." + name + ")"
		}
	}

	// A call that takes a context is, by this repo's convention, a
	// cancellable — i.e. potentially long-blocking — operation: a store
	// read, a backend round trip, a quorum write. Constructors (New*/
	// With*) that merely carry the context are exempt, as is the context
	// package itself.
	if pkgPath != "context" && !strings.HasPrefix(name, "New") && !strings.HasPrefix(name, "With") {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Params().Len() > 0 {
			if named, ok := sig.Params().At(0).Type().(*types.Named); ok {
				obj := named.Obj()
				if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
					return "context-taking call " + name + " (a cancellable operation can block for its full deadline)"
				}
			}
		}
	}
	return ""
}

// checkReadOnlyAccessor reports a write Lock on an RWMutex in a method
// whose body provably never mutates receiver state: every such accessor
// serializes readers that RLock would admit concurrently. "Provably" is
// strict — any assignment, delete, send, or escape of receiver-rooted
// mutable state (including into another call) disqualifies the method,
// so only true accessors are reported.
func (p *Pass) checkReadOnlyAccessor(fd *ast.FuncDecl, rwLocks []*ast.CallExpr) {
	recvName := receiverName(fd)
	if recvName == "" {
		return
	}
	// Taint every local that aliases receiver state (d := c.datasets[k];
	// d.Closed = true mutates the receiver through d). Mutable types
	// alias; scalars and structs copy. Fixpoint handles chains.
	tainted := map[string]bool{recvName: true}
	for changed := true; changed; {
		changed = false
		mark := func(names []ast.Expr, from ast.Expr) {
			id := rootIdent(from)
			if id == nil || !tainted[id.Name] {
				return
			}
			for _, lhs := range names {
				if li, ok := ast.Unparen(lhs).(*ast.Ident); ok && li.Name != "_" && !tainted[li.Name] && mutableType(p.declaredType(lhs)) {
					tainted[li.Name] = true
					changed = true
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range x.Rhs {
					mark(x.Lhs, rhs)
				}
			case *ast.RangeStmt:
				if x.Value != nil {
					mark([]ast.Expr{x.Value}, x.X)
				}
				if x.Key != nil {
					mark([]ast.Expr{x.Key}, x.X)
				}
			}
			return true
		})
	}
	isRecvRooted := func(e ast.Expr) bool {
		id := rootIdent(e)
		return id != nil && tainted[id.Name]
	}
	writes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if writes {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if isRecvRooted(lhs) {
					writes = true
				}
			}
		case *ast.IncDecStmt:
			if isRecvRooted(x.X) {
				writes = true
			}
		case *ast.SendStmt:
			if isRecvRooted(x.Chan) {
				writes = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && isRecvRooted(x.X) {
				writes = true // address escapes; mutation unprovable
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "delete":
					if len(x.Args) > 0 && isRecvRooted(x.Args[0]) {
						writes = true
					}
					return true
				case "len", "cap", "make", "append", "copy", "min", "max", "string":
					// Builtins that read (or write only their own result);
					// append/copy into receiver state is caught by the
					// enclosing assignment's LHS.
					return true
				}
			}
			// A method call on receiver state (other than the lock
			// operations themselves) or receiver-rooted mutable arguments
			// escaping into any call: mutation is no longer provable.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isRecvRooted(sel.X) {
				switch sel.Sel.Name {
				case "Lock", "Unlock", "RLock", "RUnlock":
				default:
					writes = true
				}
			}
			for _, arg := range x.Args {
				if isRecvRooted(arg) && mutableType(p.typeOf(arg)) {
					writes = true
				}
			}
		}
		return true
	})
	if writes {
		return
	}
	for _, call := range rwLocks {
		if isRecvRooted(lockRecvExpr(call)) {
			p.Reportf(call.Pos(), "write Lock in a read-only accessor: the method never mutates %s, so Lock serializes every concurrent reader that RLock would admit (use RLock/RUnlock, or //daspos:lock-ok if a write is hidden from the analysis)", recvName)
		}
	}
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// mutableType reports whether a value of type t shares mutable state
// with its source when passed by value: pointers, maps, slices,
// channels, and functions do; plain scalars, strings, and structs of
// them do not (they are copies).
func mutableType(t types.Type) bool {
	if t == nil {
		return true // unknown: be conservative
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// declaredType resolves an expression's type, falling back to the Defs
// object for identifiers the expression itself declares (range clause
// key/value idents have no Types entry, only a Defs one).
func (p *Pass) declaredType(e ast.Expr) types.Type {
	if t := p.typeOf(e); t != nil {
		return t
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}
