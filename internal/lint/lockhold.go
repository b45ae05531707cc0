package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold enforces mutex discipline everywhere in the module: a
// sync.Mutex/RWMutex acquired in a function must not be held across a
// blocking operation (a channel send or receive, a select with no
// default, a Wait, network I/O, a sleep — or a call to any function the
// BlocksFact marks as blocking, across package boundaries), and a Lock
// must be released on every path: a `return` between Lock and the
// matching Unlock, or a Lock with no Unlock at all, is reported.
//
// The region analysis is lexical, not a full CFG: a Lock is paired with
// the nearest following Unlock of the same lock expression (a deferred
// Unlock extends the region to the end of the function and satisfies
// every return path). Branchy early-unlock patterns are
// under-approximated rather than guessed at. sync.Cond.Wait is exempt —
// it must be called with the lock held; that is the cond-over-count
// drain pattern the gateway uses.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "a held sync.Mutex/RWMutex must not cross a blocking call, " +
		"and every Lock needs an Unlock on all return paths",
	Run: runLockHold,
}

// BlocksFact marks a function that can block the calling goroutine:
// channel operations, selects without default, Wait calls, network
// I/O, sleeps, or a call to another blocking function. lockhold uses
// it to see through call chains — including into other packages —
// from inside a lock region.
type BlocksFact struct {
	// Why is a one-phrase justification, e.g. "a channel receive"
	// or "calls cluster.forward, which blocks".
	Why string
}

// AFact marks BlocksFact as a lint fact.
func (*BlocksFact) AFact() {}

func runLockHold(pass *Pass) (any, error) {
	type decl struct {
		fd *ast.FuncDecl
		fn *types.Func
	}
	var decls []decl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, decl{fd: fd, fn: fn})
		}
	}

	// Sweep 1a: direct blocking evidence, exported as facts.
	marked := map[*types.Func]bool{}
	for _, d := range decls {
		if why := directBlockWhy(pass, d.fd.Body); why != "" {
			marked[d.fn] = true
			pass.ExportObjectFact(d.fn, &BlocksFact{Why: why})
		}
	}
	// Sweep 1b: propagate through the call graph to a fixpoint. The
	// scan order is fixed (source order, repeated), so the chosen
	// evidence — the first blocking callee — is deterministic.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if marked[d.fn] {
				continue
			}
			callee := firstBlockingCallee(pass, d.fd.Body, d.fn)
			if callee == nil {
				continue
			}
			marked[d.fn] = true
			pass.ExportObjectFact(d.fn, &BlocksFact{
				Why: "calls " + qualifiedFuncName(callee) + ", which blocks",
			})
			changed = true
		}
	}

	// Sweep 2: lock regions, one scope per function declaration or
	// literal (a literal's locks are its own goroutine's business, so
	// each literal is analyzed as a scope of its own).
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockScope(pass, fd.Body)
			for _, lit := range nestedFuncLits(fd.Body) {
				checkLockScope(pass, lit.Body)
			}
		}
	}
	return nil, nil
}

// walkScope visits the nodes of body that execute on the enclosing
// goroutine: GoStmt subtrees are skipped (spawning never blocks the
// spawner). Function literals are skipped too, unless descendInvoked is
// set and the literal is immediately invoked. visit returning false
// prunes the subtree.
func walkScope(body *ast.BlockStmt, descendInvoked bool, visit func(n ast.Node) bool) {
	invoked := immediatelyInvokedLits(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if !descendInvoked || !invoked[n] {
				return false
			}
		case nil:
			return true
		}
		return visit(n)
	})
}

// selectCommNodes collects the communication operations that are select
// case guards (`case <-ch:`, `case ch <- v:`, `case v := <-ch:`). These
// never block on their own — the select arbitrates — so the blocking
// classification must skip them and judge the select as a whole.
func selectCommNodes(body *ast.BlockStmt) map[ast.Node]bool {
	comms := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				comms[comm] = true
			case *ast.ExprStmt:
				comms[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					comms[ast.Unparen(comm.Rhs[0])] = true
				}
			}
		}
		return true
	})
	return comms
}

// directBlockWhy returns a one-phrase description of the first
// construct in body that blocks the calling goroutine ("" when none).
func directBlockWhy(pass *Pass, body *ast.BlockStmt) string {
	comms := selectCommNodes(body)
	why := ""
	walkScope(body, true, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		if !comms[n] {
			why = blockingNodeWhy(pass, n)
		}
		return why == ""
	})
	return why
}

// blockingNodeWhy classifies one node as a blocking construct,
// returning "" for non-blocking nodes. Calls are classified against
// the std-library blocker table only — fact-carrying callees are the
// caller's concern (firstBlockingCallee / checkLockScope).
func blockingNodeWhy(pass *Pass, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "a channel receive"
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // a default case makes the select non-blocking
			}
		}
		return "a select with no default"
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "ranging over a channel"
			}
		}
	case *ast.CallExpr:
		return stdBlockerWhy(pass, n)
	}
	return ""
}

// stdBlockers maps package path -> callable -> short description. Keys
// are bare names for package-level functions and "Type.Method" for
// methods. sync.Cond.Wait is deliberately absent: it requires the lock.
var stdBlockers = map[string]map[string]string{
	"time": {
		"Sleep": "time.Sleep",
	},
	"sync": {
		"WaitGroup.Wait": "sync.WaitGroup.Wait",
	},
	"net": {
		"Dial": "net.Dial", "DialTimeout": "net.DialTimeout",
		"Listener.Accept": "net.Listener.Accept",
	},
	"net/http": {
		"Get": "http.Get", "Post": "http.Post", "PostForm": "http.PostForm", "Head": "http.Head",
		"Client.Do": "http.Client.Do", "Client.Get": "http.Client.Get",
		"Client.Post": "http.Client.Post", "Client.PostForm": "http.Client.PostForm",
		"Client.Head":  "http.Client.Head",
		"Server.Serve": "http.Server.Serve", "Server.ListenAndServe": "http.Server.ListenAndServe",
		"Server.ListenAndServeTLS": "http.Server.ListenAndServeTLS",
		"Server.Shutdown":          "http.Server.Shutdown",
	},
	"os/exec": {
		"Cmd.Run": "exec.Cmd.Run", "Cmd.Wait": "exec.Cmd.Wait",
		"Cmd.Output": "exec.Cmd.Output", "Cmd.CombinedOutput": "exec.Cmd.CombinedOutput",
	},
}

// stdBlockerWhy reports whether call invokes a known-blocking standard
// library function or method.
func stdBlockerWhy(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	table, ok := stdBlockers[fn.Pkg().Path()]
	if !ok {
		return ""
	}
	return table[objectKey(fn)]
}

// firstBlockingCallee finds the first call in body (source order) to a
// function carrying a BlocksFact, skipping self-recursion.
func firstBlockingCallee(pass *Pass, body *ast.BlockStmt, self *types.Func) *types.Func {
	var found *types.Func
	walkScope(body, true, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn == self {
			return true
		}
		var fact BlocksFact
		if pass.ImportObjectFact(fn, &fact) {
			found = fn
			return false
		}
		return true
	})
	return found
}

// qualifiedFuncName renders a function for diagnostics: "pkg.Fn" or
// "pkg.Type.Method".
func qualifiedFuncName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + objectKey(fn)
}

// lockEvent is one Lock/Unlock call in a scope.
type lockEvent struct {
	call     *ast.CallExpr
	key      string // lock expression, "/R" suffix for the read side
	method   string // Lock, RLock, Unlock, RUnlock
	expr     string // rendered lock expression, for messages
	deferred bool
}

// checkLockScope runs the lexical region analysis over one function
// body. Nested literals are pruned entirely — each is its own scope.
func checkLockScope(pass *Pass, body *ast.BlockStmt) {
	comms := selectCommNodes(body)
	var events []lockEvent
	type blockSite struct {
		n   ast.Node
		why string
	}
	var blockers []blockSite
	var returns []*ast.ReturnStmt
	deferredCalls := map[*ast.CallExpr]bool{}

	walkScope(body, false, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
		case *ast.ReturnStmt:
			returns = append(returns, n)
		case *ast.CallExpr:
			if ev, ok := mutexEvent(pass, n); ok {
				ev.deferred = deferredCalls[n]
				events = append(events, ev)
				return true
			}
			if why := stdBlockerWhy(pass, n); why != "" {
				blockers = append(blockers, blockSite{n: n, why: why})
				return true
			}
			if fn := calleeFunc(pass, n); fn != nil {
				var fact BlocksFact
				if pass.ImportObjectFact(fn, &fact) {
					blockers = append(blockers, blockSite{n: n, why: qualifiedFuncName(fn) + " (" + fact.Why + ")"})
				}
			}
		default:
			if !comms[n] {
				if why := blockingNodeWhy(pass, n); why != "" {
					blockers = append(blockers, blockSite{n: n, why: why})
					// Keep descending: a select's case bodies carry
					// their own lock traffic.
				}
			}
		}
		return true
	})

	for _, ev := range events {
		if ev.method != "Lock" && ev.method != "RLock" {
			continue
		}
		unlockName := "Unlock"
		if ev.method == "RLock" {
			unlockName = "RUnlock"
		}
		// The nearest following Unlock of the same lock expression
		// bounds the region; a deferred one extends it to the end of
		// the function and satisfies every return path.
		var nearest *lockEvent
		for i := range events {
			u := &events[i]
			if u.key != ev.key || u.method != unlockName || u.call.Pos() <= ev.call.Pos() {
				continue
			}
			if nearest == nil || u.call.Pos() < nearest.call.Pos() {
				nearest = u
			}
		}
		if nearest == nil {
			pass.Reportf(ev.call.Pos(), "%s.%s() has no matching %s in this function; release it on every path (or defer the %s)",
				ev.expr, ev.method, unlockName, unlockName)
			continue
		}
		regionEnd := nearest.call.Pos()
		if nearest.deferred {
			regionEnd = body.End()
		} else {
			for _, r := range returns {
				if r.Pos() > ev.call.End() && r.End() < regionEnd {
					pass.Reportf(r.Pos(), "return while %s is still %sed (line %d); unlock on this path or defer the %s",
						ev.expr, ev.method, pass.Fset.Position(ev.call.Pos()).Line, unlockName)
				}
			}
		}
		for _, b := range blockers {
			if b.n.Pos() > ev.call.End() && b.n.Pos() < regionEnd {
				pass.Reportf(b.n.Pos(), "%s is held across %s; release the lock before blocking", ev.expr, b.why)
			}
		}
	}
}

// mutexEvent recognizes X.Lock/RLock/Unlock/RUnlock where X is a
// sync.Mutex or sync.RWMutex (directly or through embedding).
func mutexEvent(pass *Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	m := sel.Sel.Name
	if m != "Lock" && m != "RLock" && m != "Unlock" && m != "RUnlock" {
		return lockEvent{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return lockEvent{}, false
	}
	key := types.ExprString(sel.X)
	expr := key
	if m == "RLock" || m == "RUnlock" {
		key += "/R"
	}
	return lockEvent{call: call, key: key, method: m, expr: expr}, true
}

// recvTypeName returns the name of fn's receiver type ("" for
// non-methods), with pointers stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// nestedFuncLits collects every function literal under body.
func nestedFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
		}
		return true
	})
	return out
}
