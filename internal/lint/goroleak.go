package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GoroLeak requires every `go` statement to have a termination story —
// the invariant behind the service tier's clean-drain guarantee (the
// gateway's admit forwards, the server's admit batches).
// A spawned goroutine is fine when any of these hold:
//
//   - its body's loops all have an exit (a return, a break, or a
//     receive from ctx.Done()/a done-style channel) — one-shot bodies
//     with no unbounded loop trivially qualify;
//   - it is reaped through a sync.WaitGroup (a wg.Done() in the body);
//   - the go statement is annotated `//rtmdm:owned-by <lifecycle>`,
//     naming the mechanism that reaps it — an audited ownership claim,
//     reviewed like a //lint:allow.
//
// Functions whose body runs an unbounded loop with no exit export a
// NonTerminatingFact, so `go pkg.Worker()` is flagged at the spawn
// site even when Worker lives in another package.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "every go statement needs a termination path: a ctx/done " +
		"exit, a WaitGroup, or an //rtmdm:owned-by annotation",
	Run: runGoroLeak,
}

// NonTerminatingFact marks a function whose body contains an unbounded
// loop (`for { ... }`) with no termination path: no return, no break
// out of the loop, and no receive from a cancellation channel.
// Spawning such a function leaks the goroutine unless a lifecycle
// annotation claims it.
type NonTerminatingFact struct{}

// AFact marks NonTerminatingFact as a lint fact.
func (*NonTerminatingFact) AFact() {}

// ownedByPrefix is the goroutine-ownership annotation. It must name
// the lifecycle that reaps the goroutine:
//
//	//rtmdm:owned-by Gateway.Shutdown
//	go g.pump() //rtmdm:owned-by Gateway.Shutdown
//
// A directive covers its own line and the line below it.
const ownedByPrefix = "//rtmdm:owned-by"

func runGoroLeak(pass *Pass) (any, error) {
	// Sweep 1: facts — functions that loop forever with no exit.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasUnboundedLoop(pass, fd.Body) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(fn, &NonTerminatingFact{})
			}
		}
	}
	// Sweep 2: go statements.
	for _, f := range pass.Files {
		owned := parseOwnedBy(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if owned[pass.Fset.Position(g.Pos()).Line] {
				return true
			}
			checkGoStmt(pass, g)
			return true
		})
	}
	return nil, nil
}

// parseOwnedBy collects the lines of f covered by well-formed
// //rtmdm:owned-by directives and reports malformed ones (no lifecycle
// name — an ownership claim with no owner is not auditable).
func parseOwnedBy(pass *Pass, f *ast.File) map[int]bool {
	covered := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text != ownedByPrefix && !strings.HasPrefix(c.Text, ownedByPrefix+" ") {
				continue
			}
			name := strings.TrimSpace(strings.TrimPrefix(c.Text, ownedByPrefix))
			// Trailing commentary after the lifecycle name is allowed.
			if i := strings.Index(name, "//"); i >= 0 {
				name = strings.TrimSpace(name[:i])
			}
			if name == "" {
				pass.Reportf(c.Pos(), "malformed //rtmdm:owned-by directive: name the lifecycle that reaps the goroutine (e.g. //rtmdm:owned-by Gateway.Shutdown)")
				continue
			}
			line := pass.Fset.Position(c.Pos()).Line
			covered[line] = true
			covered[line+1] = true
		}
	}
	return covered
}

// checkGoStmt judges one unannotated go statement.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if callsWaitGroupDone(pass, fun.Body) {
			return // reaped by a WaitGroup
		}
		reportUnboundedLoops(pass, fun.Body)
		// Calls to known-non-terminating functions from inside the
		// goroutine body (the fact crosses package boundaries).
		walkScope(fun.Body, true, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			var fact NonTerminatingFact
			if pass.ImportObjectFact(fn, &fact) {
				pass.Reportf(call.Pos(), "goroutine calls %s, which loops forever with no termination path; give it a ctx/done exit, a WaitGroup, or annotate //rtmdm:owned-by <lifecycle>",
					qualifiedFuncName(fn))
			}
			return true
		})
	default:
		fn := calleeFunc(pass, g.Call)
		if fn == nil {
			return
		}
		var fact NonTerminatingFact
		if pass.ImportObjectFact(fn, &fact) {
			pass.Reportf(g.Pos(), "go %s: it loops forever with no termination path; give it a ctx/done exit, a WaitGroup, or annotate //rtmdm:owned-by <lifecycle>",
				qualifiedFuncName(fn))
		}
	}
}

// reportUnboundedLoops flags each exit-less unbounded loop directly in
// body (nested literals and go statements are their own scopes).
func reportUnboundedLoops(pass *Pass, body *ast.BlockStmt) {
	walkScope(body, true, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if loop.Cond == nil && !loopHasExit(loop) {
			pass.Reportf(loop.Pos(), "goroutine runs an unbounded loop with no termination path; select on ctx.Done() or a done channel, use a WaitGroup, or annotate the go statement //rtmdm:owned-by <lifecycle>")
		}
		return true
	})
}

// hasUnboundedLoop reports whether body (pruned of literals and go
// statements) contains a `for { ... }` with no exit.
func hasUnboundedLoop(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	walkScope(body, true, func(n ast.Node) bool {
		if found {
			return false
		}
		if loop, ok := n.(*ast.ForStmt); ok && loop.Cond == nil && !loopHasExit(loop) {
			found = true
			return false
		}
		return true
	})
	return found
}

// doneChanName matches identifiers conventionally naming a
// cancellation channel.
var doneChanName = regexp.MustCompile(`(?i)(done|stop|quit|halt|exit|clos)`)

// loopHasExit reports whether an unbounded loop has a way out: a
// return, a break that targets it (plain break with no intervening
// breakable construct, or any labeled break), or a receive from a
// cancellation channel (ctx.Done() or a done-style name) — the latter
// counts as evidence of a termination path even when the exit is
// indirect.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	// depth counts breakable constructs between the loop and the node
	// under inspection; a plain break at depth 0 exits our loop.
	depth := 0
	var stack []bool // parallel to Inspect's descent: was this node breakable?
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if n == nil {
			if len(stack) > 0 {
				if stack[len(stack)-1] {
					depth--
				}
				stack = stack[:len(stack)-1]
			}
			return true
		}
		if exit {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // pruned; f(nil) is not called for pruned nodes
		case *ast.ReturnStmt:
			exit = true
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && (n.Label != nil || depth == 0) {
				exit = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCancellationChan(n.X) {
				exit = true
				return false
			}
		}
		breakable := false
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			breakable = true
			depth++
		}
		stack = append(stack, breakable)
		return true
	})
	return exit
}

// isCancellationChan reports whether the received-from expression looks
// like a cancellation signal: a ctx.Done()-style call or a done-named
// channel.
func isCancellationChan(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			return doneChanName.MatchString(id.Name)
		}
	case *ast.Ident:
		return doneChanName.MatchString(x.Name)
	case *ast.SelectorExpr:
		return doneChanName.MatchString(x.Sel.Name)
	}
	return false
}

// callsWaitGroupDone reports whether body calls (*sync.WaitGroup).Done
// or Add — evidence the goroutine is reaped by a Wait elsewhere.
func callsWaitGroupDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		if recvTypeName(fn) == "WaitGroup" && (fn.Name() == "Done" || fn.Name() == "Add") {
			found = true
			return false
		}
		return true
	})
	return found
}
