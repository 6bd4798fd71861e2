package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSource type-checks one import-free source file from a temp dir.
func loadSource(t *testing.T, src string) *Package {
	return loadNamedSource(t, "fix.go", src)
}

// loadNamedSource is loadSource with control over the file name, so
// tests can exercise the _test.go exemptions.
func loadNamedSource(t *testing.T, name, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(dir).LoadDir(dir, "example.com/fix")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// analyzerNames extracts the analyzer of each finding in order.
func analyzerNames(findings []Finding) []string {
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.Analyzer
	}
	return out
}

// TestIgnorePlacement pins where a //lint:ignore directive acts: the
// same line and the line immediately above suppress; two lines away
// does not — and the out-of-range directive, having suppressed
// nothing, is itself reported stale.
func TestIgnorePlacement(t *testing.T) {
	pkg := loadSource(t, `package fix

func cmp(a, b, c, d float64) []bool {
	return []bool{
		a == b, //lint:ignore floatcmp same-line directive
		//lint:ignore floatcmp line-above directive
		a == c,
		//lint:ignore floatcmp too far away to act

		a == d,
	}
}
`)
	findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp})
	if got := analyzerNames(findings); len(got) != 2 || got[0] != "lint" || got[1] != "floatcmp" {
		t.Fatalf("got %v, want a stale-directive finding then the two-lines-away comparison", findings)
	}
	if findings[0].Pos.Line != 8 || !strings.Contains(findings[0].Message, "stale") {
		t.Errorf("first finding %v, want the line-8 directive reported stale", findings[0])
	}
	if findings[1].Pos.Line != 10 {
		t.Errorf("finding at line %d, want line 10 (a == d)", findings[1].Pos.Line)
	}
}

// TestIgnoreWrongAnalyzer: a directive only suppresses the analyzer it
// names; one naming an analyzer that is not part of the run is
// reported as suppressing nothing.
func TestIgnoreWrongAnalyzer(t *testing.T) {
	pkg := loadSource(t, `package fix

func cmp(a, b float64) bool {
	//lint:ignore droppederr names the wrong analyzer
	return a == b
}
`)
	findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp})
	got := analyzerNames(findings)
	if len(got) != 2 || got[0] != "lint" || got[1] != "floatcmp" {
		t.Fatalf("got %v, want an unknown-analyzer finding and the unsuppressed floatcmp finding", findings)
	}
	if !strings.Contains(findings[0].Message, `unknown analyzer "droppederr"`) {
		t.Errorf("directive finding does not name the unknown analyzer: %v", findings[0])
	}
}

// TestStaleIgnoreReported: a well-formed directive naming a running
// analyzer that nevertheless suppresses nothing is dead weight — the
// code it excused has been fixed or moved — and must be flagged for
// deletion.
func TestStaleIgnoreReported(t *testing.T) {
	pkg := loadSource(t, `package fix

func cmp(a, b float64) bool {
	//lint:ignore floatcmp the comparison below was rewritten long ago
	return a < b
}
`)
	findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp})
	got := analyzerNames(findings)
	if len(got) != 1 || got[0] != "lint" {
		t.Fatalf("got %v, want exactly one stale-directive finding", findings)
	}
	if !strings.Contains(findings[0].Message, "stale //lint:ignore floatcmp") {
		t.Errorf("stale finding does not name the directive's analyzer: %v", findings[0])
	}
}

// TestStaleIgnoreExemptInTests: several analyzers skip _test.go files
// wholesale, so a directive there may legitimately guard a finding the
// run never produces — test files are exempt from directive hygiene.
func TestStaleIgnoreExemptInTests(t *testing.T) {
	pkg := loadNamedSource(t, "fix_test.go", `package fix

func cmp(a, b float64) bool {
	//lint:ignore floatcmp analyzers skip test files; never stale here
	return a < b
}
`)
	if findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp}); len(findings) != 0 {
		t.Fatalf("got %v, want no findings for a directive in a test file", findings)
	}
}

// TestIgnoreMustNameAnalyzer: a used directive must name the analyzer
// whose finding it suppresses — naming a different (running) analyzer
// both leaves the original finding live and marks the directive stale.
func TestIgnoreMustNameAnalyzer(t *testing.T) {
	pkg := loadSource(t, `package fix

func cmp(a, b float64) bool {
	//lint:ignore droppederr wrong name: the finding below is floatcmp
	return a == b
}
`)
	findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp, DroppedErr})
	var sawStale, sawFloatcmp bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "stale //lint:ignore droppederr"):
			sawStale = true
		case f.Analyzer == "floatcmp":
			sawFloatcmp = true
		}
	}
	if !sawFloatcmp {
		t.Errorf("directive naming a different analyzer suppressed the floatcmp finding: %v", findings)
	}
	if !sawStale {
		t.Errorf("mis-targeted directive not reported stale: %v", findings)
	}
}

// TestMalformedIgnoreReported: a directive without a reason (or
// without an analyzer) must itself become a finding — a typo must not
// silently suppress nothing, or worse, be believed to suppress.
func TestMalformedIgnoreReported(t *testing.T) {
	pkg := loadSource(t, `package fix

func cmp(a, b float64) bool {
	//lint:ignore floatcmp
	return a == b
}
`)
	findings := Run([]*Package{pkg}, []*Analyzer{FloatCmp})
	var sawMalformed, sawFloatcmp bool
	for _, f := range findings {
		switch f.Analyzer {
		case "lint":
			sawMalformed = true
		case "floatcmp":
			sawFloatcmp = true
		}
	}
	if !sawMalformed {
		t.Errorf("malformed directive not reported: %v", findings)
	}
	if !sawFloatcmp {
		t.Errorf("malformed directive suppressed the finding anyway: %v", findings)
	}
}
