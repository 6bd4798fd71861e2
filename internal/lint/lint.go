// Package lint is convlint's analyzer framework: a self-contained
// static-analysis harness built on the standard library's go/ast,
// go/parser and go/types (no external module dependencies). It exists
// to enforce invariants the paper's method depends on — most
// importantly the boundary between packages that compute the five
// inherent metrics *analytically* and packages that *measure or
// simulate* execution — plus replayable results, allocation-free hot
// paths, released resources, float-safety, handled errors and
// goroutine hygiene. Suite lists the eight analyzers.
//
// The framework is deliberately small: an Analyzer inspects one fully
// type-checked package at a time and returns Findings; the Loader
// type-checks packages, and Run applies every analyzer and filters
// findings through //lint:ignore suppression comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Why, when non-empty, explains how the analyzer concluded the
	// finding applies — for the hotpath family, the call chain from the
	// declared root to the offending function. It is supplementary
	// detail (printed by convlint -why, carried in -json), not part of
	// the canonical String rendering.
	Why string
}

// String renders the canonical file:line:col analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package as seen by analyzers.
// TypesPkg and TypesInfo may be nil when the package was loaded in
// syntax-only mode; analyzers that need type information must tolerate
// that by returning no findings for expressions they cannot resolve.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	TypesPkg   *types.Package
	TypesInfo  *types.Info
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	Pkg    *Package
	report []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	p.ReportWhyf(analyzer, pos, "", format, args...)
}

// ReportWhyf records a finding at pos with an explanation chain (see
// Finding.Why). An empty why degrades to Reportf.
func (p *Pass) ReportWhyf(analyzer string, pos token.Pos, why string, format string, args ...any) {
	p.report = append(p.report, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
		Why:      why,
	})
}

// TypeOf resolves the type of an expression, or nil when type
// information is unavailable (syntax-only loads).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.TypesInfo == nil {
		return nil
	}
	return p.Pkg.TypesInfo.TypeOf(e)
}

// An Analyzer checks one package and reports findings through the pass.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// IgnoreDirective is the comment prefix that suppresses a finding:
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory; a directive without one is itself reported.
const IgnoreDirective = "//lint:ignore"

// ignoreKey identifies a suppression site.
type ignoreKey struct {
	file string
	line int
}

// ignoreEntry is one parsed //lint:ignore directive. Run tracks how
// many findings each directive suppressed so stale directives — ones
// guarding nothing — are themselves reported and cannot rot in place.
type ignoreEntry struct {
	pos      token.Position
	analyzer string
	used     int
}

// collectIgnores scans a package's comments for //lint:ignore
// directives. Malformed directives (missing analyzer or reason) are
// returned as findings so they cannot silently disable nothing.
func collectIgnores(pkg *Package) (map[ignoreKey][]*ignoreEntry, []Finding) {
	ignores := make(map[ignoreKey][]*ignoreEntry)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, IgnoreDirective)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				key := ignoreKey{file: pos.Filename, line: pos.Line}
				ignores[key] = append(ignores[key], &ignoreEntry{pos: pos, analyzer: fields[0]})
			}
		}
	}
	return ignores, bad
}

// Run applies analyzers to every package, filters suppressed findings,
// and returns the remainder sorted by position. Directive hygiene is
// enforced alongside, as findings of the pseudo-analyzer "lint":
// malformed //lint:ignore comments, directives naming an analyzer that
// is not part of the run (a typo'd name would otherwise silently
// suppress nothing), and stale directives that suppressed no finding
// (the code they excused has moved on; the directive must go too).
// Directives in test files are exempt from the staleness check —
// several analyzers skip test files wholesale, so a directive there
// may legitimately guard nothing.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		ignores, bad := collectIgnores(pkg)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg}
			a.Run(pass)
			for _, f := range pass.report {
				if suppressed(ignores, f) {
					continue
				}
				out = append(out, f)
			}
		}
		for _, entries := range ignores {
			for _, e := range entries {
				if strings.HasSuffix(e.pos.Filename, "_test.go") {
					continue
				}
				if !known[e.analyzer] {
					out = append(out, Finding{
						Pos:      e.pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q; the directive suppresses nothing", e.analyzer),
					})
					continue
				}
				if e.used == 0 {
					out = append(out, Finding{
						Pos:      e.pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("stale //lint:ignore %s: no %s finding on this line or the line below; delete the directive", e.analyzer, e.analyzer),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// suppressed reports whether an ignore directive for the finding's
// analyzer sits on the finding's line or the line immediately above,
// marking any matching directive as used.
func suppressed(ignores map[ignoreKey][]*ignoreEntry, f Finding) bool {
	hit := false
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, e := range ignores[ignoreKey{file: f.Pos.Filename, line: line}] {
			if e.analyzer == f.Analyzer {
				e.used++
				hit = true
			}
		}
	}
	return hit
}

// isTestFile reports whether the file a node belongs to is a Go test
// file. The loader normally excludes test files, but analyzers keep
// this guard so fixture runs behave identically.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
