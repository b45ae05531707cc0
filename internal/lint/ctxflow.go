package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context propagation on the service tier's request
// paths (the driver scopes it to internal/server and internal/cluster;
// directory fixtures run it everywhere). A request that carries a
// context must keep carrying it: a handler that quietly re-roots onto
// context.Background() detaches its work from cancellation, deadlines,
// and the drain path — exactly how shutdown leaks start. Flagged:
//
//   - context.Background() / context.TODO() anywhere in a scoped
//     package. Genuine lifecycle roots (a server's base context) are
//     audited case-by-case with //lint:allow ctxflow -- <reason>.
//   - http.NewRequest, which builds a request without a context; use
//     http.NewRequestWithContext with the caller's ctx.
//   - time.Sleep inside a function that receives a ctx: a sleep cannot
//     be cancelled; use a timer select with ctx.Done().
//   - calling a function that carries an AmbientCtxFact — "this
//     function constructs its own ambient context" — from a function
//     that has a ctx to offer. The fact crosses package boundaries, so
//     a helper that buries context.Background() two packages down still
//     surfaces at the request-path call site.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "request-path functions must thread the incoming " +
		"context.Context, not re-root onto context.Background",
	Run: runCtxFlow,
}

// AmbientCtxFact marks a function that constructs its own ambient
// context (context.Background or context.TODO) instead of accepting the
// caller's. Exported so downstream packages can flag calls into it from
// request paths.
type AmbientCtxFact struct {
	// Call names the ambient constructor used, e.g. "context.Background".
	Call string
}

// AFact marks AmbientCtxFact as a lint fact.
func (*AmbientCtxFact) AFact() {}

func runCtxFlow(pass *Pass) (any, error) {
	// Sweep 1: export facts, so same-package calls resolve no matter
	// the declaration order (cross-package facts are already in the
	// store from upstream packages).
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			call := ambientCtxCall(pass, fd.Body)
			if call == "" {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(fn, &AmbientCtxFact{Call: call})
			}
		}
	}
	// Sweep 2: report.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
	return nil, nil
}

// ambientCtxCall returns the first context.Background/TODO call in
// body ("" when none), for the fact sweep.
func ambientCtxCall(pass *Pass, body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, name := pkgFunc(pass, sel); pkg == "context" && (name == "Background" || name == "TODO") {
			found = "context." + name
		}
		return true
	})
	return found
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	hasCtx := funcHasCtxParam(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch pkg, name := pkgFunc(pass, sel); pkg {
			case "context":
				if name == "Background" || name == "TODO" {
					if hasCtx {
						pass.Reportf(call.Pos(), "context.%s discards the caller's ctx; thread the incoming context instead", name)
					} else {
						pass.Reportf(call.Pos(), "context.%s creates a fresh root off the request path; thread a caller ctx here (audited lifecycle roots use //lint:allow ctxflow)", name)
					}
					return true
				}
			case "net/http":
				if name == "NewRequest" {
					pass.Reportf(call.Pos(), "http.NewRequest builds a request without a context; use http.NewRequestWithContext with the caller's ctx")
					return true
				}
			case "time":
				if name == "Sleep" && hasCtx {
					pass.Reportf(call.Pos(), "time.Sleep cannot be cancelled; wait on a timer select with ctx.Done() instead")
					return true
				}
			}
		}
		if !hasCtx {
			return true
		}
		// Fact check: a call to a function (same package or imported)
		// that constructs its own ambient context.
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == "context" {
			return true
		}
		var fact AmbientCtxFact
		if pass.ImportObjectFact(fn, &fact) {
			pass.Reportf(call.Pos(), "call to %s.%s, which re-roots onto %s instead of accepting a ctx; pass the caller's context through",
				fn.Pkg().Name(), objectKey(fn), fact.Call)
		}
		return true
	})
}

// funcHasCtxParam reports whether fd's signature carries a
// context.Context parameter.
func funcHasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves a call expression to the function or method it
// invokes (nil for builtins, conversions, and dynamic calls).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
