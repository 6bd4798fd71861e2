package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseConfig covers the happy path: comments, blank lines, and
// all three directives, with prefix matching over path segments.
func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
# the boundary
analytical convmeter/internal/core
measured   convmeter/internal/exec
allow      convmeter/internal/core convmeter/internal/exec
`), "test.config")
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.classify("convmeter/internal/core"); got != "analytical" {
		t.Errorf("classify(core) = %q", got)
	}
	if got := cfg.classify("convmeter/internal/core/sub"); got != "analytical" {
		t.Errorf("classify(core/sub) = %q, want prefix match on path segments", got)
	}
	if got := cfg.classify("convmeter/internal/corette"); got != "" {
		t.Errorf("classify(corette) = %q, want no match: %q is not a path-segment prefix", got, "core")
	}
	if got := cfg.classify("convmeter/internal/exec"); got != "measured" {
		t.Errorf("classify(exec) = %q", got)
	}
	if !cfg.allowed("convmeter/internal/core", "convmeter/internal/exec") {
		t.Error("allow entry not honoured")
	}
	if cfg.allowed("convmeter/internal/metrics", "convmeter/internal/exec") {
		t.Error("allow entry leaked to a different importer")
	}
}

// TestParseConfigScopes covers the determinism analyzer's stanza:
// deterministic scopes match on path segments like the boundary
// classification.
func TestParseConfigScopes(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
deterministic convmeter/internal/metrics
deterministic convmeter/internal/faults
analytical    convmeter/internal/allreduce
`), "scopes.config")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.deterministicScope("convmeter/internal/metrics") {
		t.Error("deterministic scope misses a declared package")
	}
	if !cfg.deterministicScope("convmeter/internal/faults/sub") {
		t.Error("deterministic scope must match path-segment prefixes")
	}
	if cfg.deterministicScope("convmeter/internal/metricsplus") {
		t.Error("deterministic scope matched a non-segment prefix")
	}
	if cfg.deterministicScope("convmeter/internal/allreduce") {
		t.Error("analytical declaration leaked into the deterministic scope")
	}
}

// TestParseConfigV4Scopes pins the retirement of the dataflow stanzas
// that went with their analyzers: convlint v4's lifetime scope and
// v3's hotpath roots. A config that still carries them must fail
// loudly as unknown directives, not parse into a scope nothing reads,
// while the deterministic stanza beside them still parses.
func TestParseConfigV4Scopes(t *testing.T) {
	_, err := ParseConfig(strings.NewReader(`
lifetime      convmeter/internal/allreduce
deterministic convmeter/internal/obs
hotpath       convmeter/internal/exec.conv2d
`), "v4.config")
	if err == nil {
		t.Fatal("retired lifetime and hotpath stanzas parsed without error")
	}
	msg := err.Error()
	for _, want := range []string{
		`v4.config:2: unknown directive "lifetime"`,
		`v4.config:4: unknown directive "hotpath"`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not report %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "v4.config:3") {
		t.Errorf("the deterministic line was rejected too:\n%s", msg)
	}
}

// TestParseConfigDuplicatesAndConflicts: the same entry twice in one
// stanza and a package classified on both sides of the boundary are
// configuration bugs, not preferences.
func TestParseConfigDuplicatesAndConflicts(t *testing.T) {
	_, err := ParseConfig(strings.NewReader(`analytical convmeter/internal/core
analytical convmeter/internal/core
deterministic convmeter/internal/metrics
deterministic convmeter/internal/metrics
measured convmeter/internal/core
measured convmeter/internal/exec
measured convmeter/internal/exec
`), "dup.config")
	if err == nil {
		t.Fatal("duplicate and contradictory config parsed without error")
	}
	msg := err.Error()
	for _, want := range []string{
		`dup.config:2: duplicate analytical entry`,
		`dup.config:4: duplicate deterministic entry`,
		`classified both analytical and measured`,
		`dup.config:7: duplicate measured entry`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not report %q:\n%s", want, msg)
		}
	}
	// The same prefix in *different* stanzas is not a duplicate: a
	// package is legitimately both analytical and deterministic.
	if _, err := ParseConfig(strings.NewReader(`analytical convmeter/internal/core
deterministic convmeter/internal/core
`), "ok.config"); err != nil {
		t.Errorf("analytical+deterministic on one package rejected: %v", err)
	}
}

// TestParseConfigBadLines: every malformed line must be reported with
// its line number — bad config must fail loudly, never be skipped.
func TestParseConfigBadLines(t *testing.T) {
	_, err := ParseConfig(strings.NewReader(`analytical convmeter/internal/core
analytycal convmeter/internal/metrics
measured
allow convmeter/internal/core
analytical a b c
lifetime
hotpath NoDot
deterministic a b
`), "bad.config")
	if err == nil {
		t.Fatal("malformed config parsed without error")
	}
	msg := err.Error()
	for _, wantLine := range []string{"bad.config:2", "bad.config:3", "bad.config:4", "bad.config:5", "bad.config:6", "bad.config:7", "bad.config:8"} {
		if !strings.Contains(msg, wantLine) {
			t.Errorf("error does not report %s:\n%s", wantLine, msg)
		}
	}
	if !strings.Contains(msg, "unknown directive") {
		t.Errorf("error does not name the unknown directive:\n%s", msg)
	}
	for _, want := range []string{
		`bad.config:6: unknown directive "lifetime"`,
		`bad.config:7: unknown directive "hotpath"`,
		`"deterministic" takes exactly one argument, got 2 fields`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not report %q:\n%s", want, msg)
		}
	}
}

// TestRepoConfig guards the checked-in lint.config against drift: the
// paper's analytical and measured sides must stay classified.
func TestRepoConfig(t *testing.T) {
	cfg, err := LoadConfig(filepath.Join(repoRoot(t), "lint.config"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"core", "metrics", "graph", "regress", "linalg"} {
		if got := cfg.classify("convmeter/internal/" + p); got != "analytical" {
			t.Errorf("lint.config classifies %s as %q, want analytical", p, got)
		}
	}
	for _, p := range []string{"exec", "hwsim", "hwreal", "netsim", "trainsim", "pipesim", "allreduce", "obs", "driftwatch", "tracefmt", "dagrun"} {
		if got := cfg.classify("convmeter/internal/" + p); got != "measured" {
			t.Errorf("lint.config classifies %s as %q, want measured", p, got)
		}
	}
	if len(cfg.Allow) != 0 {
		t.Errorf("lint.config has %d allow entries; each one is a hole in the analytical boundary and needs a test update with justification", len(cfg.Allow))
	}
	// The replayability contract (DESIGN.md §6): the analytical side plus
	// the measured packages whose output is replayed or diffed.
	for _, p := range []string{"core", "metrics", "graph", "regress", "linalg", "faults", "tracefmt", "driftwatch", "dagrun/manifest"} {
		if !cfg.deterministicScope("convmeter/internal/" + p) {
			t.Errorf("lint.config drops %s from the deterministic scope; the replayability contract must stay enforced", p)
		}
	}
	// Packages whose job is to observe real time must stay out of it.
	for _, p := range []string{"exec", "hwreal", "obs"} {
		if cfg.deterministicScope("convmeter/internal/" + p) {
			t.Errorf("lint.config declares %s deterministic; it times real work and cannot honour the contract", p)
		}
	}
	// Every module path a stanza names must resolve to a package in the
	// tree. The analyzers match prefixes against, and look roots up in,
	// the packages they load, so a stanza naming a deleted package
	// guards nothing and still passes every run.
	root := repoRoot(t)
	for _, p := range configPackages(cfg) {
		rel, ok := strings.CutPrefix(p, "convmeter")
		if !ok || (rel != "" && rel[0] != '/') {
			continue
		}
		if !hasGoFiles(filepath.Join(root, filepath.FromSlash(rel))) {
			t.Errorf("lint.config names %s, which is not a package in the module; drop the stale stanza", p)
		}
	}
}

// configPackages lists the import path behind every stanza entry.
func configPackages(cfg *Config) []string {
	var paths []string
	for _, list := range [][]string{cfg.Analytical, cfg.Measured, cfg.Deterministic} {
		paths = append(paths, list...)
	}
	for _, a := range cfg.Allow {
		paths = append(paths, a[0], a[1])
	}
	return paths
}

// hasGoFiles reports whether dir exists and holds at least one .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// TestBoundaryAllowlist exercises the allow mechanics end to end on a
// synthetic pass: the same import is a finding without the entry and
// silent with it.
func TestBoundaryAllowlist(t *testing.T) {
	root := repoRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "boundary")
	pkg, err := NewLoader(root).LoadDir(dir, "convmeter/internal/lint/testdata/boundary")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureConfig()
	cfg.Allow = nil // drop the netsim allowlist entry
	findings := Run([]*Package{pkg}, []*Analyzer{NewBoundary(cfg)})
	var netsim int
	for _, f := range findings {
		if strings.Contains(f.Message, "netsim") {
			netsim++
		}
	}
	if netsim != 1 {
		t.Errorf("without the allow entry the netsim import must be a finding; got %v", findings)
	}
}
