// Package linttest runs a lint.Analyzer over a golden fixture package
// and checks its findings against `// want "regex"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the repo's own
// dependency-free framework.
//
// Expectations are written on the line they apply to:
//
//	x := rand.Intn(5) // want "global source"
//
// Each quoted string is a regular expression that must match the message
// of one diagnostic reported on that line; conversely every diagnostic
// must be matched by an expectation, so fixtures fail loudly on both
// false positives and false negatives. Lines carrying a //lint:allow
// directive and no want comment double as suppression golden cases.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"rtmdm/internal/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader builds one Loader per test process: the initial
// `go list -export` of the module closure dominates load time, so every
// analyzer test reuses it.
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = lint.NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("linttest: building loader: %v", loaderErr)
	}
	return loader
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("linttest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// wantRe extracts the quoted regexes of a `// want` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one unmatched want-regex.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// Run loads testdata/src/<fixture> relative to the caller's package
// directory, runs the analyzer (with suppressions applied), and diffs
// findings against the fixture's want comments.
//
// A fixture's immediate subdirectories are dependency packages: they
// load (sorted) and are analyzed before the root package, all sharing
// one fact store, so cross-package fact cases — a dep exporting a
// blocking or ambient-context function, the root calling it — run
// exactly like the driver's dependency-ordered module walk. Want
// comments in dependency files are checked too.
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	l := sharedLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	base := "rtmdm-lint-fixture/" + fixture

	// Dependency subpackages first, then the fixture root.
	type loadUnit struct {
		importPath string
		dir        string
	}
	units := []loadUnit{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: reading %s: %v", dir, err)
	}
	for _, e := range ents {
		if e.IsDir() {
			units = append(units, loadUnit{base + "/" + e.Name(), filepath.Join(dir, e.Name())})
		}
	}
	units = append(units, loadUnit{base, dir})

	store := lint.NewFactStore()
	var wants []*expectation
	type located struct {
		pos  string // "file:line"
		diag lint.Diagnostic
		file string
		line int
	}
	var diags []located
	for _, u := range units {
		pkg, err := l.LoadDir(u.importPath, u.dir)
		if err != nil {
			t.Fatalf("linttest: loading %s: %v", u.dir, err)
		}
		ds, err := lint.RunAllWith([]*lint.Analyzer{a}, pkg, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			pos := pkg.Fset.Position(d.Pos)
			diags = append(diags, located{diag: d, file: pos.Filename, line: pos.Line})
		}
		// Collect expectations from raw source lines.
		for fname, src := range pkg.Src {
			for i, line := range strings.Split(string(src), "\n") {
				_, comment, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				ms := wantRe.FindAllStringSubmatch(comment, -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: malformed want comment (no quoted regex)", fname, i+1)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", fname, i+1, m[1], err)
					}
					wants = append(wants, &expectation{file: fname, line: i + 1, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.re == nil || w.file != d.file || w.line != d.line {
				continue
			}
			if w.re.MatchString(d.diag.Message) {
				w.re = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", d.file, d.line, d.diag.Analyzer, d.diag.Message)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
