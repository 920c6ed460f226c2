package analysis

import (
	"go/ast"
	"go/types"
)

// Refbalance checks the encode-once ownership rules of refcounted frame
// buffers (wire.EncodedFrame and any type shaped like it): a reference
// obtained from an encode call must be Released or handed off to another
// owner, and a Retain must create references that some other owner takes.
// Use after Release and double Release are left to the tests: the frame
// panics when over-released, and the TCP suites catch a recycled buffer.
//
// A type is refcounted when it has both a Retain and a no-argument Release
// method; the analyzer is structural so fixtures (and future refcounted
// types) need no registration.
//
// The analysis is intraprocedural and deliberately conservative about
// control flow: the leak check asks "is this reference released or handed
// off anywhere in the function", not whether every path releases it.
var Refbalance = &Analyzer{
	Name: "refbalance",
	Doc: "check that refcounted encoded frames (Retain/Release types) are " +
		"released or handed off, and that every Retain is handed off",
	Run: runRefbalance,
}

// IsRefcounted reports whether t (or its pointee) is a named type carrying
// both Retain and Release methods — the encode-once ownership shape.
func IsRefcounted(t types.Type) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	var retain, release bool
	for i := 0; i < n.NumMethods(); i++ {
		switch n.Method(i).Name() {
		case "Retain":
			retain = true
		case "Release":
			sig, ok := n.Method(i).Type().(*types.Signature)
			release = ok && sig.Params().Len() == 0
		}
	}
	return retain && release
}

func runRefbalance(pass *Pass) error {
	WalkFuncs(pass.Files, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
		checkRefLeaks(pass, body)
		checkRetainHandoff(pass, body)
	})
	return nil
}

// checkRetainHandoff flags statement-level Retain calls in functions that
// never hand the value off. The only reason to Retain is to create
// references for other owners (an outbox, a fan-out, a cache); a function
// that Retains and at most Releases its own reference leaves the retained
// ones dangling.
func checkRetainHandoff(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Retain" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || !IsRefcounted(obj.Type()) {
			return true
		}
		moved := false
		ast.Inspect(body, func(u ast.Node) bool {
			if moved {
				return false
			}
			uid, ok := u.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[uid] != obj || uid == id {
				return true
			}
			if refOwnershipMoves(body, uid) {
				moved = true
				return false
			}
			return true
		})
		if !moved {
			pass.Reportf(call.Pos(),
				"Retain on %s in a function that never hands the frame off: the added references have no owner to Release them", id.Name)
		}
		return true
	})
}

// checkRefLeaks flags references acquired from a call (a variable of
// refcounted type initialized from a function's result) that the enclosing
// declaration neither Releases nor hands off.
func checkRefLeaks(pass *Pass, body *ast.BlockStmt) {
	type acquisition struct {
		obj types.Object
		pos ast.Node
	}
	var acquired []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		// A method call on a refcounted value (x.Retain, x.Bytes) is not an
		// acquisition; only plain/function results are.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if IsRefcounted(pass.TypesInfo.Types[sel.X].Type) {
				return true
			}
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || !IsRefcounted(obj.Type()) {
				continue
			}
			acquired = append(acquired, acquisition{obj: obj, pos: id})
		}
		return true
	})

	for _, acq := range acquired {
		balanced := false
		ast.Inspect(body, func(n ast.Node) bool {
			if balanced {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != acq.obj {
				return true
			}
			if isReleaseCallOn(pass, body, id) || refOwnershipMoves(body, id) {
				balanced = true
				return false
			}
			return true
		})
		if !balanced {
			pass.Reportf(acq.pos.Pos(),
				"refcounted frame acquired here is neither Released nor handed off in this function (encode-once ownership: every reference is dropped exactly once)")
		}
	}
}

// isReleaseCallOn reports whether id appears as the receiver of a Release
// call within body.
func isReleaseCallOn(pass *Pass, body *ast.BlockStmt, id *ast.Ident) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Release" {
			return true
		}
		if sel.X == ast.Expr(id) {
			found = true
			return false
		}
		return true
	})
	return found
}

// refOwnershipMoves reports whether the given use of a refcounted variable
// transfers its reference to another owner: passed as a call argument,
// placed in a composite literal, assigned to another variable or field,
// returned, or sent on a channel. Method calls on the value itself are
// reads, not transfers.
func refOwnershipMoves(body *ast.BlockStmt, use *ast.Ident) bool {
	path := nodePath(body, use)
	if len(path) < 2 {
		return false
	}
	parent := path[len(path)-2]
	switch p := parent.(type) {
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(use) {
				return true
			}
		}
		return false
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.ReturnStmt, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if r == ast.Expr(use) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return true // &x: address escapes
	}
	return false
}

// nodePath returns the chain of nodes from root down to target, inclusive,
// or nil when target is not under root.
func nodePath(root ast.Node, target ast.Node) []ast.Node {
	var path []ast.Node
	var found bool
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		path = append(path, n)
		if n == target {
			found = true
			return false
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if found || c == nil || c == n {
				return c == n
			}
			visit(c)
			return false
		})
		if !found {
			path = path[:len(path)-1]
		}
		return false
	}
	visit(root)
	if !found {
		return nil
	}
	return path
}
