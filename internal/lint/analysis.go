// Package lint implements rtmdm's custom static analyzers: mechanized
// enforcement of the invariants the simulator's bit-reproducibility
// claims rest on (no wall-clock or ambient randomness in sim paths,
// checked arithmetic on milli-scaled sim.Time values, zero allocation in
// //rtmdm:hotpath functions, metric names pinned to the documented
// catalogue). See docs/STATIC_ANALYSIS.md for the analyzer catalogue and
// the suppression directive.
//
// # Framework
//
// The types in this file mirror the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so each
// analyzer's Run function would port to the upstream framework
// mechanically. The build environment vendors no third-party modules, so
// a minimal stand-in is implemented here on the standard library alone;
// if x/tools is ever vendored, only this file and the loader need to
// change, not the analyzers.
//
// Analyzers are pure functions of a type-checked package: they receive a
// Pass holding the syntax trees and types.Info and report findings
// through Pass.Reportf. Suppression (//lint:allow) is applied by the
// caller after the analyzer runs, so analyzers stay oblivious to it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. It is the unit the driver,
// the tests, and docs/STATIC_ANALYSIS.md all enumerate.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description; the first line is the summary
	// printed by rtmdm-lint -list.
	Doc string
	// Run performs the check on one package, reporting findings via
	// pass.Reportf. The returned value is unused by this suite (the
	// upstream framework threads it to dependent analyzers).
	Run func(pass *Pass) (any, error)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts *FactStore
	diags []Diagnostic
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over a loaded package and returns its
// findings with //lint:allow suppressions already applied: suppressed
// diagnostics are dropped, and malformed directives (a missing
// "-- reason") surface as diagnostics themselves so a suppression can
// never be silent. Findings are sorted by position. The analyzer runs
// against a fresh fact store; use RunAllWith to thread facts across
// packages.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	return run(a, pkg, NewFactStore(), true)
}

func run(a *Analyzer, pkg *Package, store *FactStore, reportBad bool) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		facts:     store,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	diags := filterSuppressed(pkg, a.Name, pass.diags, reportBad)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunAll executes every analyzer in as over the package, concatenating
// sorted per-analyzer findings in analyzer order. Malformed //lint:allow
// directives are reported once, not once per analyzer. Facts live in a
// store private to this call; use RunAllWith to share one across
// packages.
func RunAll(as []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	return RunAllWith(as, pkg, NewFactStore(), nil)
}

// RunAllWith executes every analyzer in as over the package, reading
// and exporting cross-package facts through store. Every analyzer runs
// (so its facts are computed for downstream packages), but diagnostics
// are kept only for analyzers where keep returns true; a nil keep keeps
// everything. This is how the driver scopes reporting (determinism to
// sim paths, ctxflow/goroleak to the service tier) without starving
// downstream packages of upstream facts.
func RunAllWith(as []*Analyzer, pkg *Package, store *FactStore, keep func(*Analyzer) bool) ([]Diagnostic, error) {
	var out []Diagnostic
	reportedBad := false
	for _, a := range as {
		kept := keep == nil || keep(a)
		d, err := run(a, pkg, store, kept && !reportedBad)
		if err != nil {
			return nil, err
		}
		if !kept {
			continue
		}
		reportedBad = true
		out = append(out, d...)
	}
	return out, nil
}

// All is the suite in catalogue order. docsync pins this list against
// docs/STATIC_ANALYSIS.md.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MilliTime, HotPathAlloc, MetricName, CtxFlow, LockHold, GoroLeak}
}

// Names returns the analyzer names in catalogue order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}
