package rtmdm

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"rtmdm/internal/analysis"
	"rtmdm/internal/cluster"
	"rtmdm/internal/corpus"
	"rtmdm/internal/dse"
	"rtmdm/internal/exec"
	"rtmdm/internal/expr"
	"rtmdm/internal/lint"
	"rtmdm/internal/metrics"
	"rtmdm/internal/server"
	"rtmdm/internal/workload"
)

// allMetricNames registers every instrumented package on one registry and
// returns the full set of metric names the process can expose.
func allMetricNames() map[string]bool {
	reg := metrics.NewRegistry()
	exec.Instrument(reg)
	dse.Instrument(reg)
	expr.Instrument(reg)
	workload.Instrument(reg)
	analysis.Instrument(reg)
	cluster.Instrument(reg)
	corpus.Instrument(reg)
	server.RegisterMetrics(reg)
	cluster.RegisterMetrics(reg)
	defer func() {
		exec.Instrument(nil)
		dse.Instrument(nil)
		expr.Instrument(nil)
		workload.Instrument(nil)
		analysis.Instrument(nil)
		cluster.Instrument(nil)
		corpus.Instrument(nil)
	}()
	names := map[string]bool{}
	for _, s := range reg.Snapshot().Samples {
		names[s.Name] = true
	}
	return names
}

// metricName matches the catalogue entries in docs/OBSERVABILITY.md:
// backticked dotted identifiers like `exec.jobs_released`, scoped to the
// instrumented-package namespaces so file names like `out.json` don't count.
var metricName = regexp.MustCompile("`((?:sim|exec|dse|expr|workload|server|analysis|gateway|cluster|corpus)\\.[a-z0-9_]+)`")

// TestObservabilityDocMatchesRegistry keeps docs/OBSERVABILITY.md and the
// registry in lockstep, both directions: every metric named in the doc must
// exist, and every registered metric must be documented.
func TestObservabilityDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	registered := allMetricNames()
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md names %q, which is not in the registry", name)
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("metric %q is registered but missing from docs/OBSERVABILITY.md", name)
		}
	}
}

// TestCorpusDocMatchesSpec keeps the spec-field table in docs/CORPUS.md
// and the corpus.Spec struct in lockstep, both directions: every JSON
// field the spec accepts must be documented, and every documented field
// must exist. The declared side comes from reflection over Spec's json
// tags, so adding an axis without documenting it fails here.
func TestCorpusDocMatchesSpec(t *testing.T) {
	doc, err := os.ReadFile("docs/CORPUS.md")
	if err != nil {
		t.Fatal(err)
	}
	// Table rows whose first column is a backticked snake_case field name.
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)` \\|")
	documented := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	declared := map[string]bool{}
	st := reflect.TypeOf(corpus.Spec{})
	for i := 0; i < st.NumField(); i++ {
		name, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if name == "" || name == "-" {
			t.Errorf("corpus.Spec field %s has no json name; the spec format is public", st.Field(i).Name)
			continue
		}
		declared[name] = true
	}
	for name := range declared {
		if !documented[name] {
			t.Errorf("corpus.Spec field %q is missing from docs/CORPUS.md's spec-field table", name)
		}
	}
	for name := range documented {
		if !declared[name] {
			t.Errorf("docs/CORPUS.md documents spec field %q, which corpus.Spec does not declare", name)
		}
	}
}

// TestRobustnessDocNamesExist keeps docs/ROBUSTNESS.md honest in one
// direction: every metric it mentions must exist in the registry (the
// catalogue itself lives in OBSERVABILITY.md, so full coverage is not
// required here).
func TestRobustnessDocNamesExist(t *testing.T) {
	doc, err := os.ReadFile("docs/ROBUSTNESS.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := allMetricNames()
	for _, m := range metricName.FindAllStringSubmatch(string(doc), -1) {
		if !registered[m[1]] {
			t.Errorf("docs/ROBUSTNESS.md names %q, which is not in the registry", m[1])
		}
	}
}

// goRunRe and goTestRe match the commands a reader copies out of the
// docs: `go run ./pkg ...` and `go test [flags] [packages]` up to the end
// of the line, a closing backtick or a shell comment.
var (
	goRunRe    = regexp.MustCompile(`go run (\./[\w./-]*)`)
	goTestRe   = regexp.MustCompile("go test([^\n`#]*)")
	testFuncRe = regexp.MustCompile(`^(Example|Test|Benchmark|Fuzz)\w*$`)
)

// TestDocumentedCommandsExist checks every `go run` and `go test -run`
// command in README.md and docs/TUTORIAL.md: each named package directory
// must exist, and each Example/Test/Benchmark/Fuzz function a -run pattern
// names must be declared in that package's test files.
func TestDocumentedCommandsExist(t *testing.T) {
	for _, path := range []string{"README.md", "docs/TUTORIAL.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRunRe.FindAllStringSubmatch(string(doc), -1) {
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s: `go run %s` names no package directory", path, m[1])
			}
		}
		for _, m := range goTestRe.FindAllStringSubmatch(string(doc), -1) {
			cmd := "go test " + strings.TrimSpace(m[1])
			args := strings.Fields(m[1])
			var pattern string
			var pkgs []string
			for i, a := range args {
				switch {
				case a == "-run" && i+1 < len(args):
					pattern = strings.Trim(args[i+1], `'"`)
				case strings.HasPrefix(a, "."):
					pkgs = append(pkgs, strings.TrimSuffix(a, "/..."))
				}
			}
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			for _, pkg := range pkgs {
				if fi, err := os.Stat(pkg); err != nil || !fi.IsDir() {
					t.Errorf("%s: `%s` names no package directory %s", path, cmd, pkg)
					continue
				}
				for _, name := range strings.Split(pattern, "|") {
					name = strings.Trim(name, "^$")
					if testFuncRe.MatchString(name) && !declaresTestFunc(t, pkg, name) {
						t.Errorf("%s: `%s` runs %s, which %s does not declare", path, cmd, name, pkg)
					}
				}
			}
		}
	}
}

// declaresTestFunc reports whether a _test.go file in dir declares the
// function name.
func declaresTestFunc(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ` + name + `\(`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Match(src) {
			return true
		}
	}
	return false
}

// TestClusterDocMatchesGateway keeps the endpoint table in
// docs/CLUSTER.md and the gateway's mounted route table (cluster.Routes)
// in lockstep, both directions. Only the "## Gateway endpoints" section
// is scanned — the doc also names rtmdm-serve routes (like
// `GET /v1/snapshot`) elsewhere, which are pinned by SERVER.md.
func TestClusterDocMatchesGateway(t *testing.T) {
	doc, err := os.ReadFile("docs/CLUSTER.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	if i := strings.Index(section, "## Gateway endpoints"); i >= 0 {
		section = section[i:]
		if j := strings.Index(section[1:], "\n## "); j >= 0 {
			section = section[:j+1]
		}
	} else {
		t.Fatal("docs/CLUSTER.md has no \"## Gateway endpoints\" section")
	}
	routeRe := regexp.MustCompile("`((?:GET|POST) /[a-z0-9/]+)`")
	documented := map[string]bool{}
	for _, m := range routeRe.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for _, route := range cluster.Routes() {
		if !documented[route] {
			t.Errorf("gateway route %q is missing from docs/CLUSTER.md's endpoint section", route)
		}
	}
	for route := range documented {
		found := false
		for _, r := range cluster.Routes() {
			if r == route {
				found = true
			}
		}
		if !found {
			t.Errorf("docs/CLUSTER.md documents route %q, which the gateway does not mount", route)
		}
	}
}

// TestServerDocMatchesRoutes keeps the "### `METHOD /path`" endpoint
// sections in docs/SERVER.md and rtmdm-serve's mounted route table
// (server.Routes) in lockstep, both directions.
func TestServerDocMatchesRoutes(t *testing.T) {
	doc, err := os.ReadFile("docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	sectionRe := regexp.MustCompile("(?m)^### `((?:GET|POST) /[a-z0-9/]+)`$")
	documented := map[string]bool{}
	for _, m := range sectionRe.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	for _, route := range server.Routes() {
		if !documented[route] {
			t.Errorf("server route %q has no endpoint section in docs/SERVER.md", route)
		}
	}
	for route := range documented {
		found := false
		for _, r := range server.Routes() {
			if r == route {
				found = true
			}
		}
		if !found {
			t.Errorf("docs/SERVER.md documents route %q, which rtmdm-serve does not mount", route)
		}
	}
}

// TestStaticAnalysisDocMatchesAnalyzers keeps docs/STATIC_ANALYSIS.md and
// the lint suite in lockstep: every registered analyzer must have a
// "### `name`" section, and every such section must name a registered
// analyzer.
func TestStaticAnalysisDocMatchesAnalyzers(t *testing.T) {
	doc, err := os.ReadFile("docs/STATIC_ANALYSIS.md")
	if err != nil {
		t.Fatal(err)
	}
	sectionRe := regexp.MustCompile("(?m)^### `([a-z]+)`$")
	documented := map[string]bool{}
	for _, m := range sectionRe.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}
	registered := lint.Names()
	for _, name := range registered {
		if !documented[name] {
			t.Errorf("analyzer %q has no section in docs/STATIC_ANALYSIS.md", name)
		}
	}
	for name := range documented {
		found := false
		for _, r := range registered {
			if r == name {
				found = true
			}
		}
		if !found {
			t.Errorf("docs/STATIC_ANALYSIS.md documents %q, which is not a registered analyzer (lint.Names() = %s)",
				name, strings.Join(registered, ", "))
		}
	}
}

// TestDisabledInstrumentationAllocFree pins the zero-overhead-when-disabled
// guarantee at the top of the stack: instrumenting the process and then
// disabling it again must leave a full case-study simulation with exactly
// the allocation profile of a never-instrumented run.
func TestDisabledInstrumentationAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is wall-time sensitive; skipped in -short")
	}
	plat := DefaultPlatform()
	pol := RTMDM()
	set, err := NewSystem(plat, pol).
		AddTask("kws", "ds-cnn", 50*Millisecond).
		AddTask("det", "mobilenetv1-0.25", 150*Millisecond).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := Simulate(set, plat, pol, 200*Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine pool and offline caches
	baseline := testing.AllocsPerRun(5, run)

	// Round-trip through an enabled registry, then disable again.
	reg := metrics.NewRegistry()
	exec.Instrument(reg)
	run()
	exec.Instrument(nil)
	disabled := testing.AllocsPerRun(5, run)

	if disabled != baseline {
		t.Fatalf("disabled instrumentation changed the alloc profile: %.0f allocs/op, baseline %.0f",
			disabled, baseline)
	}
}
