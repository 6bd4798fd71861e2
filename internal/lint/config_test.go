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

// TestParseConfigScopes covers the dataflow-analyzer stanzas:
// deterministic scopes match on path segments like the boundary
// classification, and hotpath entries resolve to per-package local
// root names.
func TestParseConfigScopes(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
deterministic convmeter/internal/metrics
deterministic convmeter/internal/faults
lifetime      convmeter/internal/allreduce
hotpath       convmeter/internal/exec.conv2d
hotpath       convmeter/internal/exec.convTask.run
hotpath       convmeter/internal/obs.Counter.Add
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
		t.Error("lifetime declaration leaked into the deterministic scope")
	}
	// hotpathRoots strips the exact package prefix and keeps the local
	// name, including the Recv.Method form; other packages see nothing.
	if got := cfg.hotpathRoots("convmeter/internal/exec"); len(got) != 2 || got[0] != "conv2d" || got[1] != "convTask.run" {
		t.Errorf("hotpathRoots(exec) = %v, want [conv2d convTask.run]", got)
	}
	if got := cfg.hotpathRoots("convmeter/internal/obs"); len(got) != 1 || got[0] != "Counter.Add" {
		t.Errorf("hotpathRoots(obs) = %v, want [Counter.Add]", got)
	}
	if got := cfg.hotpathRoots("convmeter/internal"); got != nil {
		t.Errorf("hotpathRoots(parent) = %v, want nil: entries bind to one exact package", got)
	}
}

// TestParseConfigV4Scopes covers the lifetime stanza convlint v4
// added: its scope matches on path segments and stays apart from the
// other stanzas' scopes.
func TestParseConfigV4Scopes(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
lifetime      convmeter/internal/allreduce
deterministic convmeter/internal/obs
`), "v4.config")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.lifetimeScope("convmeter/internal/allreduce") || !cfg.lifetimeScope("convmeter/internal/allreduce/sub") {
		t.Error("lifetime scope misses a declared package or its path-segment children")
	}
	if cfg.lifetimeScope("convmeter/internal/allreducer") {
		t.Error("lifetime scope matched a non-segment prefix")
	}
	if cfg.lifetimeScope("convmeter/internal/obs") {
		t.Error("deterministic declaration leaked into the lifetime scope")
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
hotpath convmeter/internal/exec.conv2d
hotpath convmeter/internal/exec.conv2d
hotpath NoDotHere
lifetime convmeter/internal/allreduce
lifetime convmeter/internal/allreduce
`), "dup.config")
	if err == nil {
		t.Fatal("duplicate and contradictory config parsed without error")
	}
	msg := err.Error()
	for _, want := range []string{
		`dup.config:2: duplicate analytical entry`,
		`dup.config:4: duplicate deterministic entry`,
		`dup.config:7: duplicate hotpath entry`,
		`"NoDotHere" is not a qualified function`,
		`classified both analytical and measured`,
		`dup.config:10: duplicate lifetime entry`,
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
		`"lifetime" takes exactly one argument, got 0 fields`,
		`hotpath entry "NoDot" is not a qualified function`,
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
	for _, p := range []string{"exec", "hwsim", "hwreal", "netsim", "trainsim", "pipesim", "allreduce", "obs", "obs/ops", "driftwatch", "tracefmt", "dagrun"} {
		if got := cfg.classify("convmeter/internal/" + p); got != "measured" {
			t.Errorf("lint.config classifies %s as %q, want measured", p, got)
		}
	}
	if len(cfg.Allow) != 0 {
		t.Errorf("lint.config has %d allow entries; each one is a hole in the analytical boundary and needs a test update with justification", len(cfg.Allow))
	}
	// The replayability contract (DESIGN.md §6): the analytical side plus
	// the measured packages whose output is replayed or diffed.
	for _, p := range []string{"core", "metrics", "graph", "regress", "linalg", "faults", "tracefmt", "driftwatch/streamstat", "dagrun/manifest"} {
		if !cfg.deterministicScope("convmeter/internal/" + p) {
			t.Errorf("lint.config drops %s from the deterministic scope; the replayability contract must stay enforced", p)
		}
	}
	// Packages whose job is to observe real time must stay out of it.
	for _, p := range []string{"exec", "hwreal", "obs", "driftwatch"} {
		if cfg.deterministicScope("convmeter/internal/" + p) {
			t.Errorf("lint.config declares %s deterministic; it times real work and cannot honour the contract", p)
		}
	}
	// The resource-lifetime contract (DESIGN.md §6c) is enforced
	// module-wide — analytical packages simply have nothing to report.
	for _, p := range []string{"convmeter/internal/allreduce", "convmeter/internal/obs/ops", "convmeter/internal/dagrun", "convmeter/cmd/convmeter"} {
		if !cfg.lifetimeScope(p) {
			t.Errorf("lint.config drops %s from the lifetime scope; the resource-lifetime contract must stay module-wide", p)
		}
	}
	// The hot-path allocation contract: the kernels the runtime model
	// measures, the collective inner step, and the always-on telemetry
	// observe paths must stay declared, or the hotpath analyzer stops
	// guarding the numbers the paper's predictions are fitted to.
	for pkg, roots := range map[string][]string{
		"convmeter/internal/exec":                  {"conv2d", "convTask.run", "im2colTask.run", "gemmTask.run", "linear", "attentionCore", "conv2dBackward", "Executor.ApplySGD", "Executor.ApplyAdam"},
		"convmeter/internal/allreduce":             {"chanRing.step"},
		"convmeter/internal/obs":                   {"Counter.Add", "Gauge.Set", "Histogram.Observe", "Span.Context", "Span.LinkTo"},
		"convmeter/internal/driftwatch":            {"Stream.Observe"},
		"convmeter/internal/driftwatch/streamstat": {"Welford.Add", "PageHinkley.Add"},
	} {
		declared := map[string]bool{}
		for _, r := range cfg.hotpathRoots(pkg) {
			declared[r] = true
		}
		for _, r := range roots {
			if !declared[r] {
				t.Errorf("lint.config drops hotpath root %s.%s; the allocation discipline on it is no longer enforced", pkg, r)
			}
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

// configPackages lists the import path behind every stanza entry: a
// prefix stanza's argument as is, a hotpath entry
// (<import-path>.<Func> or <import-path>.<Recv>.<Method>) up to the
// first '.' after its last '/'.
func configPackages(cfg *Config) []string {
	var paths []string
	for _, list := range [][]string{cfg.Analytical, cfg.Measured, cfg.Deterministic, cfg.Lifetime} {
		paths = append(paths, list...)
	}
	for _, a := range cfg.Allow {
		paths = append(paths, a[0], a[1])
	}
	for _, q := range cfg.Hotpath {
		slash := strings.LastIndexByte(q, '/')
		if dot := strings.IndexByte(q[slash+1:], '.'); dot >= 0 {
			q = q[:slash+1+dot]
		}
		paths = append(paths, q)
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
