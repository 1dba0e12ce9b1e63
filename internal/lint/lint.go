// Package lint is a small static-analysis framework for this repository,
// built only on the standard library (go/parser, go/ast, go/types, go/token).
// It keeps the analyzers no runtime test can stand in for (see
// docs/STATIC_ANALYSIS.md for the table that decides which those are):
// hotalloc follows every static call path from the per-tuple entry points,
// where an AllocsPerRun gate sees only the inputs it is fed; errflow and
// floateq audit source patterns no behavioural test observes.
//
// A Loader type-checks packages from source, each Analyzer inspects the
// whole load at once, and findings carry file:line positions. Findings can
// be suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or on the line directly above it; the reason
// is mandatory, and a directive that suppresses nothing is itself a finding.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check. Run sees every loaded package at once, which
// is what lets hotalloc follow calls across package boundaries; analyzers
// scoped to some packages filter Pass.Pkgs themselves.
type Analyzer struct {
	// Name identifies the analyzer in reports and ignore directives.
	Name string
	// Doc is a one-line description shown by the driver.
	Doc string
	// Run inspects the load and reports findings through the pass.
	Run func(p *Pass)
}

// Pass carries the loaded packages through one analyzer run.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Pkgs are all loaded packages, in load order.
	Pkgs []*Package
	// findings accumulates reports.
	findings *[]Finding
}

// Reportf records a finding at pos, resolved against pkg's file set.
func (p *Pass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// All returns the repository's analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{FloatEq, HotAlloc, ErrFlow}
}

// Run applies the analyzers to the packages and returns, sorted by
// position, the findings no directive suppresses together with the
// directive findings (checkDirectives).
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Pkgs: pkgs, findings: &raw})
	}
	dirs := collectDirectives(pkgs)
	var out []Finding
	for _, f := range raw {
		if !suppressed(dirs, f) {
			out = append(out, f)
		}
	}
	out = append(out, checkDirectives(dirs, analyzers)...)
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

// ---------------------------------------------------------- suppressions ---

// directive is one //lint:ignore comment in the load.
type directive struct {
	pos      token.Position
	analyzer string // empty when malformed
	used     bool   // it suppressed at least one finding
}

// parseIgnoreDirective parses one comment's text as a //lint:ignore
// directive. isDirective reports whether the comment is a lint:ignore at
// all; a directive with an empty analyzer name or an empty reason returns
// ok=false, which checkDirectives reports as malformed. Parsing is
// whitespace-shape agnostic: tabs or multiple spaces between the keyword,
// the analyzer name, and the reason all parse the same, as do directives
// whose comment text carries leading whitespace (indented blocks,
// doc-comment groups).
func parseIgnoreDirective(comment string) (analyzer, reason string, isDirective, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, found := strings.CutPrefix(text, "lint:ignore")
	if !found {
		return "", "", false, false
	}
	// "lint:ignoreX" is some other token, not a malformed directive.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", "", false, false
	}
	parts := strings.Fields(rest)
	if len(parts) < 2 {
		return "", "", true, false
	}
	return parts[0], strings.Join(parts[1:], " "), true, true
}

// collectDirectives returns every //lint:ignore comment in the packages.
func collectDirectives(pkgs []*Package) []*directive {
	var out []*directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					analyzer, _, isDirective, _ := parseIgnoreDirective(c.Text)
					if isDirective {
						out = append(out, &directive{pos: pkg.Fset.Position(c.Pos()), analyzer: analyzer})
					}
				}
			}
		}
	}
	return out
}

// suppressed reports whether a well-formed directive naming f's analyzer
// sits on f's line or the line directly above it, and marks every such
// directive used.
func suppressed(dirs []*directive, f Finding) bool {
	hit := false
	for _, d := range dirs {
		if d.analyzer == f.Analyzer && d.pos.Filename == f.Pos.Filename &&
			(d.pos.Line == f.Pos.Line || d.pos.Line+1 == f.Pos.Line) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// checkDirectives reports the directives that keep suppressions auditable:
// malformed ones (missing analyzer name or reason), and ones that suppress
// nothing — they name an analyzer that is not in All(), or one that ran and
// reported nothing where the directive reaches. A directive naming an
// analyzer of All() that was not run cannot be judged and passes.
func checkDirectives(dirs []*directive, ran []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	judged := map[string]bool{}
	for _, a := range ran {
		judged[a.Name] = true
	}
	var out []Finding
	for _, d := range dirs {
		var msg string
		switch {
		case d.analyzer == "":
			msg = "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>"
		case !known[d.analyzer]:
			msg = fmt.Sprintf("//lint:ignore names %q, which is not an analyzer: it suppresses nothing", d.analyzer)
		case judged[d.analyzer] && !d.used:
			msg = fmt.Sprintf("//lint:ignore %s suppresses nothing: no %s finding on this line or the next", d.analyzer, d.analyzer)
		default:
			continue
		}
		out = append(out, Finding{Analyzer: "directive", Pos: d.pos, Message: msg})
	}
	return out
}

// pkgPathHasSuffix reports whether the package's import path ends with
// suffix at a path-segment boundary, so fixtures under any module name match
// the same packages as the real tree.
func pkgPathHasSuffix(pkg *Package, suffix string) bool {
	return pkg.Path == suffix || strings.HasSuffix(pkg.Path, "/"+suffix)
}
