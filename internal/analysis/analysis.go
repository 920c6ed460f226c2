// Package analysis is a small, dependency-free analysis framework in the
// spirit of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package and reports Diagnostics. It exists because the
// repo's load-bearing invariants — encode-once reference ownership, the
// broker's two-plane locking, hot-path allocation discipline — lived only
// in prose (ARCHITECTURE.md, code comments) until dimlint turned them into
// build-failing checks. The decode-copies-out contract of pooled buffers
// is a test instead (TestPooledReadBufferNeverEscapes plus the -race
// suites). The framework is deliberately x/tools-shaped so
// the analyzers could be ported to the real go/analysis API verbatim if
// the dependency ever becomes available; it is built on the standard
// library only (go/ast, go/types, go/importer).
//
// Driver: internal/analysis/load runs `go list -export` and type-checks
// whole package patterns; `dimlint ./...` and analysistest feed the
// packages it returns through RunAnalyzers, which also applies the
// //dimlint:ignore suppression directives.
//
// Test files (*_test.go) are not analyzed: load hands over a package's
// GoFiles only. The invariants govern production code, and tests
// legitimately break them (deliberate misuse to provoke errors).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. Run inspects the package in
// pass and reports violations through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dimlint:ignore directives. By convention it is a single
	// lowercase word.
	Name string
	// Doc is the one-paragraph description dimlint prints in its usage.
	Doc string
	// Run performs the analysis. A non-nil error aborts the whole run
	// (driver bug or unusable input, not a finding).
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test syntax trees.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs exposes the package's dimlint directives (hotpath and locked
	// marks); ignore directives are applied by the driver.
	Dirs *Directives

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one type-checked package as the drivers hand it to
// RunAnalyzers.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers runs every analyzer over pkg, applies the package's
// //dimlint:ignore directives, and returns the surviving diagnostics in
// source order. Malformed directives (an ignore with no reason) surface
// as diagnostics from the pseudo-analyzer "dimlint" and cannot be
// suppressed.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := ParseDirectives(pkg.Fset, pkg.Files)

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Dirs:      dirs,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	diags = dirs.filter(diags)
	diags = append(diags, dirs.problems...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// --- shared AST/type helpers used by several analyzers ---------------------

// NamedOf returns the named type behind t, unwrapping pointers and
// aliases, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// ReceiverIdent returns fd's receiver identifier, or nil for plain
// functions and anonymous receivers.
func ReceiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	if id.Name == "_" {
		return nil
	}
	return id
}

// PkgPathOf returns the import path of the package qualifying sel, or ""
// when sel is not a package-qualified reference.
func PkgPathOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// MutexKind classifies t: 2 for sync.RWMutex, 1 for sync.Mutex, 0 for
// anything else.
func MutexKind(t types.Type) int {
	n := NamedOf(t)
	if n == nil {
		return 0
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0
	}
	switch obj.Name() {
	case "RWMutex":
		return 2
	case "Mutex":
		return 1
	}
	return 0
}

// IsWaitGroup reports whether t is sync.WaitGroup.
func IsWaitGroup(t types.Type) bool {
	n := NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// HasMutexField reports whether named's underlying struct carries a
// sync.RWMutex (kind 2) or any mutex (kind 1) field, directly.
func HasMutexField(named *types.Named, minKind int) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if MutexKind(st.Field(i).Type()) >= minKind {
			return true
		}
	}
	return false
}

// ExprKey renders e as a stable string key ("b.mu", "h.c.subs") for
// comparing selector chains lexically. It returns "" for expressions that
// are not pure identifier/selector/star chains — those never participate
// in the lexical ownership tracking.
func ExprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := ExprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return ExprKey(x.X)
	case *ast.StarExpr:
		base := ExprKey(x.X)
		if base == "" {
			return ""
		}
		return "*" + base
	}
	return ""
}

// WalkFuncs invokes fn for every function body in the files: named
// declarations get their *ast.FuncDecl, function literals get nil. Bodies
// of literals are also reached through their enclosing declaration's
// traversal; fn receives each exactly once as the innermost unit.
func WalkFuncs(files []*ast.File, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd, fd.Body)
			}
		}
	}
}
