package analysis

import (
	"go/ast"
	"go/types"
)

// Poolescape checks the decode-copies-out contract of pooled buffers: a
// value drawn from a sync.Pool (directly via Get, or through a
// //dimlint:pooled accessor) is only valid until it goes back to the pool,
// so it must not
//
//   - be stored into a field, map, slice element, global, or channel,
//   - be returned by a function that is not itself a //dimlint:pooled
//     accessor,
//   - be captured by or passed to a goroutine, or
//   - be used after it was Put back.
//
// Passing a pooled value to an ordinary call is fine — the callee returns
// before the buffer can be recycled. Values of refcounted types
// (Retain/Release) are exempt: their lifetime is governed by refbalance,
// not by lexical scope.
var Poolescape = &Analyzer{
	Name: "poolescape",
	Doc: "check that pooled buffers never escape their pool window: no stores to " +
		"fields/globals, no returns from non-accessors, no goroutine captures, no use after Put",
	Run: runPoolescape,
}

func runPoolescape(pass *Pass) error {
	pooledFuncs := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !pass.Dirs.FuncHas(fd, "pooled") {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				pooledFuncs[obj] = true
			}
		}
	}
	WalkFuncs(pass.Files, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
		c := &poolescapeChecker{
			pass:        pass,
			pooledFuncs: pooledFuncs,
			accessor:    pass.Dirs.FuncHas(fd, "pooled"),
			pooled:      make(map[types.Object]bool),
			body:        body,
		}
		c.run()
	})
	return nil
}

type poolescapeChecker struct {
	pass        *Pass
	pooledFuncs map[types.Object]bool
	accessor    bool // enclosing function is a //dimlint:pooled accessor
	pooled      map[types.Object]bool
	body        *ast.BlockStmt
}

func (c *poolescapeChecker) run() {
	// Pass 1: collect pooled objects (Get results, pooled-accessor results,
	// and derivations) to a fixed point — derivations can lexically precede
	// knowledge on deeply nested forms, one extra sweep settles them.
	for {
		before := len(c.pooled)
		ast.Inspect(c.body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				c.collectAssign(as)
			}
			return true
		})
		if len(c.pooled) == before {
			break
		}
	}
	// checkEscapes also catches direct `return pool.Get()` forms with no
	// named pooled variable, so it runs unconditionally.
	c.checkEscapes()
	if len(c.pooled) > 0 {
		c.checkUseAfterPut()
	}
}

// collectAssign marks LHS variables pooled when the RHS draws from a pool
// or derives from an already-pooled value.
func (c *poolescapeChecker) collectAssign(as *ast.AssignStmt) {
	mark := func(lhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil || IsRefcounted(obj.Type()) {
			return
		}
		c.pooled[obj] = true
	}
	if len(as.Rhs) == 1 {
		if c.isPoolSource(as.Rhs[0]) {
			for _, lhs := range as.Lhs {
				mark(lhs)
			}
			return
		}
	}
	for i, rhs := range as.Rhs {
		if i < len(as.Lhs) && c.derivesFromPooled(rhs) {
			mark(as.Lhs[i])
		}
	}
}

// isPoolSource reports whether expr draws a value out of a pool: a
// sync.Pool Get call, a //dimlint:pooled accessor call, or either wrapped
// in a type assertion.
func (c *poolescapeChecker) isPoolSource(expr ast.Expr) bool {
	switch x := expr.(type) {
	case *ast.TypeAssertExpr:
		return c.isPoolSource(x.X)
	case *ast.CallExpr:
		switch fn := x.Fun.(type) {
		case *ast.SelectorExpr:
			if fn.Sel.Name == "Get" && isSyncPool(c.pass.TypesInfo.Types[fn.X].Type) {
				return true
			}
			if obj := c.pass.TypesInfo.Uses[fn.Sel]; obj != nil && c.pooledFuncs[obj] {
				return true
			}
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[fn]; obj != nil && c.pooledFuncs[obj] {
				return true
			}
		}
	}
	return false
}

// derivesFromPooled reports whether expr aliases pooled memory: a pooled
// identifier, or a slice/index/selector/star/paren chain rooted at one.
func (c *poolescapeChecker) derivesFromPooled(expr ast.Expr) bool {
	for {
		switch x := expr.(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			return obj != nil && c.pooled[obj]
		case *ast.SliceExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.ParenExpr:
			expr = x.X
		default:
			return false
		}
	}
}

// isSyncPool reports whether t is sync.Pool (or a pointer to it).
func isSyncPool(t types.Type) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// checkEscapes walks the function for stores, returns, sends, and
// goroutine captures of pooled values.
func (c *poolescapeChecker) checkEscapes() {
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if len(s.Rhs) == len(s.Lhs) && c.derivesFromPooled(rhs) {
					c.checkStoreTarget(s.Lhs[i], rhs)
				}
			}
		case *ast.ReturnStmt:
			if c.accessor {
				return true
			}
			for _, r := range s.Results {
				if c.derivesFromPooled(r) || c.isPoolSource(r) {
					c.pass.Reportf(r.Pos(),
						"pooled buffer returned from a function not marked //dimlint:pooled: the caller would hold it past its pool window (copy the data out instead)")
				}
			}
		case *ast.SendStmt:
			if c.derivesFromPooled(s.Value) || c.isPoolSource(s.Value) {
				c.pass.Reportf(s.Value.Pos(),
					"pooled buffer sent on a channel: the receiver may use it after it returns to the pool")
			}
		case *ast.GoStmt:
			c.checkGoCapture(s)
			return false // literal body checked by checkGoCapture
		}
		return true
	})
}

// checkStoreTarget flags assignments of pooled memory into locations that
// outlive the pool window: fields or elements of non-pooled values, and
// package-level variables. Assigning to a plain local aliases the buffer,
// which pass 1 already tracks.
func (c *poolescapeChecker) checkStoreTarget(lhs ast.Expr, rhs ast.Expr) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[x]; obj != nil {
			if _, pkgLevel := obj.(*types.Var); pkgLevel && obj.Parent() == c.pass.Pkg.Scope() {
				c.pass.Reportf(lhs.Pos(),
					"pooled buffer stored in package-level variable %s: it outlives the pool window", x.Name)
			}
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if c.derivesFromPooled(lhs) {
			return // pooled-into-pooled (growing a scratch buffer) is fine
		}
		c.pass.Reportf(lhs.Pos(),
			"pooled buffer stored in %s, which outlives the pool window: decoders copy or intern everything out of pooled buffers", ExprKey(lhs))
	}
	_ = rhs
}

// checkGoCapture flags goroutines that capture or are passed pooled
// values: the goroutine may still run after the buffer is recycled.
func (c *poolescapeChecker) checkGoCapture(g *ast.GoStmt) {
	fl, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		// go f(pooled): the argument escapes the synchronous window.
		for _, arg := range g.Call.Args {
			if c.derivesFromPooled(arg) {
				c.pass.Reportf(arg.Pos(), "pooled buffer passed to a goroutine: it may outlive its pool window")
			}
		}
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.pooled[obj] {
				c.pass.Reportf(id.Pos(),
					"pooled buffer %s captured by a goroutine: it may outlive its pool window", id.Name)
			}
		}
		return true
	})
}

// checkUseAfterPut flags straight-line uses of a pooled variable after the
// statement that returned it to its pool.
func (c *poolescapeChecker) checkUseAfterPut() {
	ast.Inspect(c.body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		c.checkPutSequence(list)
		return true
	})
}

func (c *poolescapeChecker) checkPutSequence(list []ast.Stmt) {
	put := make(map[types.Object]bool)
	for _, stmt := range list {
		if len(put) > 0 {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := c.pass.TypesInfo.Uses[id]; obj != nil && put[obj] {
					c.pass.Reportf(id.Pos(),
						"use of pooled buffer %s after it was returned to its pool", id.Name)
				}
				return true
			})
		}
		if as, ok := stmt.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
						delete(put, obj)
					}
				}
			}
		}
		if obj := c.putTarget(stmt); obj != nil {
			put[obj] = true
		}
	}
}

// putTarget returns the pooled object an ExprStmt returns to its pool:
// pool.Put(x) on a sync.Pool. Accessor-style put helpers take the pool
// token, not the buffer, so only direct Puts participate.
func (c *poolescapeChecker) putTarget(stmt ast.Stmt) types.Object {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || !isSyncPool(c.pass.TypesInfo.Types[sel.X].Type) {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil || !c.pooled[obj] {
		return nil
	}
	return obj
}
