package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected into a string.
func capture(t *testing.T, fn func() int) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	code := fn()
	w.Close()
	return code, <-done
}

// TestCleanTree pins the dogfooding invariant: the repo's own packages
// carry no unsuppressed findings from any of the seven analyzers.
func TestCleanTree(t *testing.T) {
	code, out := capture(t, func() int { return runStandalone([]string{"./..."}, "text") })
	if code != 0 {
		t.Fatalf("rtmdm-lint ./... = %d, want 0; output:\n%s", code, out)
	}
}

// TestBrokenFixtureFailsEveryAnalyzer runs directory mode over a fixture
// holding one violation per analyzer and requires all seven to fire.
func TestBrokenFixtureFailsEveryAnalyzer(t *testing.T) {
	code, out := capture(t, func() int {
		return runStandalone([]string{filepath.Join("testdata", "brokentree")}, "text")
	})
	if code == 0 {
		t.Fatalf("rtmdm-lint testdata/brokentree = 0, want nonzero")
	}
	for _, a := range []string{"determinism", "millitime", "hotpathalloc", "metricname", "ctxflow", "lockhold", "goroleak"} {
		if !strings.Contains(out, "["+a+"]") {
			t.Errorf("no %s finding in output:\n%s", a, out)
		}
	}
}

// TestSeededClockFails is the acceptance check from the determinism
// analyzer's contract: introducing time.Now() into a simulation package
// must fail the lint run.
func TestSeededClockFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sim")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package sim\n\nimport \"time\"\n\nfunc Seed() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "seed.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, func() int { return runStandalone([]string{dir}, "text") })
	if code == 0 {
		t.Fatalf("seeding time.Now() passed the lint run; output:\n%s", out)
	}
	if !strings.Contains(out, "time.Now") {
		t.Errorf("finding does not name time.Now:\n%s", out)
	}
}

// goldenCompare diffs got against the golden file, rewriting it when
// -update is plumbed through via UPDATE_GOLDEN=1.
func goldenCompare(t *testing.T, golden, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_GOLDEN=1 to create): %v", golden, err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s:\n--- want ---\n%s\n--- got ---\n%s", golden, want, got)
	}
}

// TestFormatJSONGolden pins the -format json encoding byte-for-byte:
// stable ordering, module-root-relative paths, a trailing count.
func TestFormatJSONGolden(t *testing.T) {
	code, out := capture(t, func() int {
		return runStandalone([]string{filepath.Join("testdata", "brokentree")}, "json")
	})
	if code == 0 {
		t.Fatalf("rtmdm-lint -format json testdata/brokentree = 0, want nonzero")
	}
	goldenCompare(t, filepath.Join("testdata", "golden", "brokentree.json"), out)
}

// TestFormatSARIFGolden pins the SARIF 2.1.0 encoding the CI lint job
// uploads: one run, the seven-rule catalogue, sorted results.
func TestFormatSARIFGolden(t *testing.T) {
	code, out := capture(t, func() int {
		return runStandalone([]string{filepath.Join("testdata", "brokentree")}, "sarif")
	})
	if code == 0 {
		t.Fatalf("rtmdm-lint -format sarif testdata/brokentree = 0, want nonzero")
	}
	goldenCompare(t, filepath.Join("testdata", "golden", "brokentree.sarif"), out)
}

// TestFormatSARIFCleanIsValid checks the zero-findings document still
// carries the runs/tool skeleton uploads require.
func TestFormatSARIFClean(t *testing.T) {
	code, out := capture(t, func() int { return runStandalone([]string{"./..."}, "sarif") })
	if code != 0 {
		t.Fatalf("rtmdm-lint -format sarif ./... = %d, want 0", code)
	}
	for _, frag := range []string{`"version": "2.1.0"`, `"name": "rtmdm-lint"`, `"results": []`} {
		if !strings.Contains(out, frag) {
			t.Errorf("clean SARIF output missing %s:\n%s", frag, out)
		}
	}
}

// auditedSuppressions is the reviewed inventory size: every //lint:allow
// in the module's non-testdata packages. A new suppression is a reviewed
// boundary crossing — update the pin in the same change that adds it.
// The six internal/corpus entries are the spec/scenario-file float-ms
// boundaries of the generator (docs/CORPUS.md).
const auditedSuppressions = 36

// TestSuppressionAudit pins the audited suppression inventory: every
// directive lists with file, analyzer and a non-empty reason, and the
// count matches the reviewed number above.
func TestSuppressionAudit(t *testing.T) {
	code, out := capture(t, func() int { return runSuppressionAudit() })
	if code != 0 {
		t.Fatalf("rtmdm-lint -suppressions = %d, want 0 (malformed directive in tree?); output:\n%s", code, out)
	}
	lineRe := regexp.MustCompile(`^[^:]+\.go:\d+: [a-z]+ -- \S.*$`)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, l := range lines {
		if !lineRe.MatchString(l) {
			t.Errorf("audit line not in file:line: analyzer -- reason form: %q", l)
		}
	}
	if len(lines) != auditedSuppressions {
		t.Errorf("audit lists %d suppressions, want %d; update the pin when adding a reviewed //lint:allow\n%s",
			len(lines), auditedSuppressions, out)
	}
}
