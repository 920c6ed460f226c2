package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments understood by dimlint. All use Go's directive form
// (no space after //):
//
//	//dimlint:hotpath
//	    On a function declaration: the function is on the match hot path;
//	    the hotpathiter analyzer forbids map iteration and fmt calls in it
//	    (including function literals it contains).
//
//	//dimlint:locked
//	    On a function declaration: the method mutates lock-guarded state
//	    but relies on its caller holding the write lock. lockplane exempts
//	    the body from the lock-before-mutate rule and instead requires
//	    every caller to hold the lock (or be annotated itself).
//
//	//dimlint:ignore <analyzer> <reason>
//	    Suppresses <analyzer>'s diagnostics on the same line and the line
//	    directly below (so the directive can trail the flagged statement
//	    or sit on its own line above it). <analyzer> may be "all". The
//	    reason is mandatory: an ignore without one is itself a
//	    diagnostic, reported unconditionally — CI stays red until every
//	    suppression says why.
const directivePrefix = "//dimlint:"

type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
}

// Directives holds one package's parsed dimlint directives.
type Directives struct {
	ignores   []ignoreDirective
	funcMarks map[*ast.FuncDecl]map[string]bool
	problems  []Diagnostic
}

// ParseDirectives extracts the dimlint directives from the files.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		funcMarks: make(map[*ast.FuncDecl]map[string]bool),
	}
	for _, f := range files {
		// Function marks come from doc comments so they unambiguously
		// attach to one declaration.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				switch kind, _ := parseDirective(c.Text); kind {
				case "hotpath", "locked":
					marks := d.funcMarks[fd]
					if marks == nil {
						marks = make(map[string]bool)
						d.funcMarks[fd] = marks
					}
					marks[kind] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, rest := parseDirective(c.Text)
				if kind != "ignore" {
					continue
				}
				pos := fset.Position(c.Pos())
				analyzer, reason, _ := strings.Cut(rest, " ")
				analyzer = strings.TrimSpace(analyzer)
				reason = strings.TrimSpace(reason)
				if analyzer == "" || reason == "" {
					d.problems = append(d.problems, Diagnostic{
						Analyzer: "dimlint",
						Pos:      pos,
						Message:  "dimlint:ignore needs an analyzer name and a non-empty reason (//dimlint:ignore <analyzer> <reason>)",
					})
					continue
				}
				d.ignores = append(d.ignores, ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: analyzer,
					reason:   reason,
				})
			}
		}
	}
	return d
}

// parseDirective splits a "//dimlint:kind rest" comment; kind is "" for
// non-directive comments.
func parseDirective(text string) (kind, rest string) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", ""
	}
	body := text[len(directivePrefix):]
	kind, rest, _ = strings.Cut(body, " ")
	return strings.TrimSpace(kind), strings.TrimSpace(rest)
}

// FuncHas reports whether fd carries the given doc-comment mark
// ("hotpath" or "locked").
func (d *Directives) FuncHas(fd *ast.FuncDecl, mark string) bool {
	return fd != nil && d.funcMarks[fd][mark]
}

// filter drops diagnostics covered by an ignore directive. A directive
// covers its own line and the next one, in its file, for its named
// analyzer (or "all"). The pseudo-analyzer "dimlint" (malformed
// directives) is never suppressible.
func (d *Directives) filter(diags []Diagnostic) []Diagnostic {
	if len(d.ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, diag := range diags {
		if diag.Analyzer != "dimlint" && d.suppressed(diag) {
			continue
		}
		kept = append(kept, diag)
	}
	return kept
}

func (d *Directives) suppressed(diag Diagnostic) bool {
	for _, ig := range d.ignores {
		if ig.file != diag.Pos.Filename {
			continue
		}
		if ig.analyzer != "all" && ig.analyzer != diag.Analyzer {
			continue
		}
		if diag.Pos.Line == ig.line || diag.Pos.Line == ig.line+1 {
			return true
		}
	}
	return false
}
