package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot locates the module root, two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// wantRx matches fixture expectation markers: `// want <analyzer>`.
var wantRx = regexp.MustCompile(`// want ([a-z]+)`)

// wantMarkers collects expected findings ("file:line analyzer") from
// marker comments in every fixture file of dir.
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d %s", path, i+1, m[1])] = true
			}
		}
	}
	return want
}

// fixtureConfig classifies the boundary fixture as analytical, the
// real simulator/executor packages as measured, allowlists the
// fixture's netsim import, and scopes the dataflow analyzers to their
// fixture packages.
func fixtureConfig() *Config {
	return &Config{
		Analytical: []string{"convmeter/internal/lint/testdata/boundary"},
		Measured: []string{
			"convmeter/internal/hwsim",
			"convmeter/internal/netsim",
			"convmeter/internal/exec",
		},
		Allow: [][2]string{
			{"convmeter/internal/lint/testdata/boundary", "convmeter/internal/netsim"},
		},
		Deterministic: []string{"convmeter/internal/lint/testdata/determinism"},
		Hotpath: []string{
			"convmeter/internal/lint/testdata/hotpath.Root",
			"convmeter/internal/lint/testdata/hotpath.ring.step",
			"convmeter/internal/lint/testdata/hotdefer.Root",
		},
		Lifetime: []string{"convmeter/internal/lint/testdata/lifetime"},
	}
}

// TestAnalyzerFixtures drives every suite analyzer against its seeded
// fixture package, testdata/<analyzer name>: each `// want <analyzer>`
// marker must produce exactly one finding, nothing else may fire, and
// the //lint:ignore lines embedded in the fixtures must stay silent. An
// analyzer without a fixture directory fails to load.
func TestAnalyzerFixtures(t *testing.T) {
	root := repoRoot(t)
	loader := NewLoader(root)
	for _, a := range Suite(fixtureConfig()) {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "lint", "testdata", name)
			pkg, err := loader.LoadDir(dir, "convmeter/internal/lint/testdata/"+name)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run([]*Package{pkg}, Suite(fixtureConfig()))
			want := wantMarkers(t, dir)
			got := make(map[string]bool)
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d %s", f.Pos.Filename, f.Pos.Line, f.Analyzer)
				if got[key] {
					t.Errorf("duplicate finding: %s", f)
				}
				got[key] = true
				if !want[key] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing finding: want %s", key)
				}
			}
		})
	}
}

// TestHotpathUnknownRoot pins the config-hygiene rule: a hotpath root
// naming no function in its package is itself a finding — a typo'd
// root would otherwise silently guard nothing.
func TestHotpathUnknownRoot(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "hotpath")
	pkg, err := NewLoader(root).LoadDir(dir, "convmeter/internal/lint/testdata/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Hotpath: []string{"convmeter/internal/lint/testdata/hotpath.NoSuchFunc"}}
	var hot []Finding
	for _, f := range Run([]*Package{pkg}, []*Analyzer{NewHotPath(cfg), NewHotDefer(cfg)}) {
		if f.Analyzer == "hotpath" {
			hot = append(hot, f)
		}
	}
	if len(hot) != 1 {
		t.Fatalf("got %d hotpath findings, want exactly the unknown-root report: %v", len(hot), hot)
	}
	if !strings.Contains(hot[0].Message, "NoSuchFunc") {
		t.Errorf("finding does not name the missing root: %s", hot[0])
	}
}

// TestHotpathWhyChain checks that hotpath findings carry the
// root→…→function reachability chain convlint -why prints.
func TestHotpathWhyChain(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "hotpath")
	pkg, err := NewLoader(root).LoadDir(dir, "convmeter/internal/lint/testdata/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range Run([]*Package{pkg}, []*Analyzer{NewHotPath(fixtureConfig())}) {
		if f.Analyzer != "hotpath" {
			continue
		}
		if strings.Contains(f.Why, "ring.step") {
			found = true
			if want := "declared root ring.step → ring.note"; !strings.Contains(f.Why, want) {
				t.Errorf("finding why = %q, want it to contain %q", f.Why, want)
			}
		} else if f.Why == "" {
			t.Errorf("hotpath finding without a why chain: %s", f)
		}
	}
	if !found {
		t.Error("no finding for the method-root chain (ring.note)")
	}
}

// TestConvlintRepoClean runs the full convlint suite over the whole
// repository with the checked-in lint.config. Tier-1 (`go test ./...`)
// therefore enforces the analyzers' verdict on every future change: a
// new boundary violation, float comparison, dropped error or joinless
// goroutine fails the build.
func TestConvlintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint load is not short")
	}
	root := repoRoot(t)
	cfg, err := LoadConfig(filepath.Join(root, "lint.config"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, f := range Run(pkgs, Suite(cfg)) {
		t.Errorf("%s", f)
	}
}

// TestLoaderRejectsBrokenPackage pins the loader's failure mode: type
// errors must surface as load errors, not be analysed silently.
func TestLoaderRejectsBrokenPackage(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc f() int { return \"not an int\" }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewLoader(dir).LoadDir(dir, "example.com/broken")
	if err == nil {
		t.Fatal("loading a package with type errors succeeded")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("error does not mention type-checking: %v", err)
	}
}
