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
// deterministic and lockcheck scopes match on path segments like the
// boundary classification, unit entries form a qualified-name set, and
// hotpath entries resolve to per-package local root names.
func TestParseConfigScopes(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
deterministic convmeter/internal/metrics
deterministic convmeter/internal/faults
lockcheck     convmeter/internal/allreduce
unit          convmeter/internal/metrics.Seconds
unit          convmeter/internal/metrics.FLOPs
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
		t.Error("lockcheck declaration leaked into the deterministic scope")
	}
	if !cfg.lockcheckScope("convmeter/internal/allreduce") {
		t.Error("lockcheck scope misses a declared package")
	}
	units := cfg.unitSet()
	if !units["convmeter/internal/metrics.Seconds"] || !units["convmeter/internal/metrics.FLOPs"] {
		t.Errorf("unit set %v misses declared entries", units)
	}
	if len(units) != 2 {
		t.Errorf("unit set %v has stray entries", units)
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

// TestParseConfigV4Scopes covers the convlint v4 stanzas: the three
// analyzer scopes match on path segments, acquire pairs map function to
// release method, and transfer/ctxroot form qualified-name sets.
func TestParseConfigV4Scopes(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`
lifetime  convmeter/internal/allreduce
ctxflow   convmeter/internal/obs
chanproto convmeter/internal/exec
acquire   convmeter/internal/obs.Tracer.Start End
acquire   convmeter/internal/obs/ops.Start Close
transfer  convmeter/internal/faults.WrapConn
ctxroot   convmeter/internal/obs/ops.Server.Close
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
		t.Error("ctxflow declaration leaked into the lifetime scope")
	}
	if !cfg.ctxflowScope("convmeter/internal/obs") {
		t.Error("ctxflow scope misses a declared package")
	}
	if !cfg.chanprotoScope("convmeter/internal/exec") {
		t.Error("chanproto scope misses a declared package")
	}
	acq := cfg.acquireSet()
	if acq["convmeter/internal/obs.Tracer.Start"] != "End" || acq["convmeter/internal/obs/ops.Start"] != "Close" {
		t.Errorf("acquire set %v misses declared pairs", acq)
	}
	if len(acq) != 2 {
		t.Errorf("acquire set %v has stray entries", acq)
	}
	if !cfg.transferSet()["convmeter/internal/faults.WrapConn"] {
		t.Errorf("transfer set %v misses the declared sink", cfg.transferSet())
	}
	if !cfg.ctxrootSet()["convmeter/internal/obs/ops.Server.Close"] {
		t.Errorf("ctxroot set %v misses the declared entry point", cfg.ctxrootSet())
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
unit convmeter/internal/metrics.Seconds
unit convmeter/internal/metrics.Seconds
unit NoDotHere
lifetime convmeter/internal/allreduce
lifetime convmeter/internal/allreduce
acquire convmeter/internal/obs.Tracer.Start End
acquire convmeter/internal/obs.Tracer.Start Stop
`), "dup.config")
	if err == nil {
		t.Fatal("duplicate and contradictory config parsed without error")
	}
	msg := err.Error()
	for _, want := range []string{
		`dup.config:2: duplicate analytical entry`,
		`dup.config:4: duplicate deterministic entry`,
		`dup.config:7: duplicate unit entry`,
		`"NoDotHere" is not a qualified type`,
		`classified both analytical and measured`,
		`dup.config:10: duplicate lifetime entry`,
		// Two release methods for one acquire func is a contradiction,
		// so the dup check keys on the function alone.
		`dup.config:12: duplicate acquire entry`,
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
acquire convmeter/internal/obs.Tracer.Start
acquire NoDot End
acquire convmeter/internal/obs.Tracer.Start pkg.End
transfer NoDot
ctxroot NoDot
`), "bad.config")
	if err == nil {
		t.Fatal("malformed config parsed without error")
	}
	msg := err.Error()
	for _, wantLine := range []string{"bad.config:2", "bad.config:3", "bad.config:4", "bad.config:5", "bad.config:6", "bad.config:7", "bad.config:8", "bad.config:9", "bad.config:10"} {
		if !strings.Contains(msg, wantLine) {
			t.Errorf("error does not report %s:\n%s", wantLine, msg)
		}
	}
	if !strings.Contains(msg, "unknown directive") {
		t.Errorf("error does not name the unknown directive:\n%s", msg)
	}
	for _, want := range []string{
		`"acquire" takes a qualified function and a release method name`,
		`acquire entry "NoDot" is not a qualified acquire`,
		`acquire release "pkg.End" must be a bare method name`,
		`transfer entry "NoDot" is not a qualified transfer`,
		`ctxroot entry "NoDot" is not a qualified ctxroot`,
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
	for _, p := range []string{"allreduce", "obs", "train", "driftwatch"} {
		if !cfg.lockcheckScope("convmeter/internal/" + p) {
			t.Errorf("lint.config drops %s from the lockcheck scope", p)
		}
	}
	units := cfg.unitSet()
	for _, u := range []string{"Seconds", "FLOPs", "Bytes", "Count"} {
		if !units["convmeter/internal/metrics."+u] {
			t.Errorf("lint.config drops unit metrics.%s; unitcheck would stop guarding it", u)
		}
	}
	// The resource-lifetime contract (DESIGN.md §6c): resource lifetimes,
	// context discipline and channel protocol are enforced module-wide —
	// analytical packages simply have nothing to report.
	for _, scope := range []struct {
		name string
		in   func(string) bool
	}{
		{"lifetime", cfg.lifetimeScope},
		{"ctxflow", cfg.ctxflowScope},
		{"chanproto", cfg.chanprotoScope},
	} {
		for _, p := range []string{"convmeter/internal/allreduce", "convmeter/internal/obs/ops", "convmeter/internal/dagrun", "convmeter/cmd/convmeter"} {
			if !scope.in(p) {
				t.Errorf("lint.config drops %s from the %s scope; the resource-lifetime contract must stay module-wide", p, scope.name)
			}
		}
	}
	// Every ctxroot entry is a hole in the cancellation-propagation
	// contract: growing this set needs a test update with justification.
	ctxroots := cfg.ctxrootSet()
	for _, q := range []string{"convmeter/internal/obs/ops.Server.Close", "convmeter/internal/allreduce.Options.ctx"} {
		if !ctxroots[q] {
			t.Errorf("lint.config drops ctxroot %s; ctxflow would flag its deliberate root context", q)
		}
	}
	if len(ctxroots) != 2 {
		t.Errorf("lint.config has %d ctxroot entries; each one detaches work from caller deadlines and needs a test update with justification", len(ctxroots))
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
		"convmeter/internal/driftwatch/streamstat": {"Window.Add", "Window.Summary"},
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
// prefix stanza's argument as is, a qualified entry
// (<import-path>.<Name> or <import-path>.<Recv>.<Method>) up to the
// first '.' after its last '/'.
func configPackages(cfg *Config) []string {
	var paths []string
	for _, list := range [][]string{cfg.Analytical, cfg.Measured, cfg.Deterministic, cfg.Lockcheck, cfg.Lifetime, cfg.Ctxflow, cfg.Chanproto} {
		paths = append(paths, list...)
	}
	for _, a := range cfg.Allow {
		paths = append(paths, a[0], a[1])
	}
	var qualified []string
	for _, list := range [][]string{cfg.Units, cfg.Hotpath, cfg.Transfer, cfg.Ctxroot} {
		qualified = append(qualified, list...)
	}
	for _, a := range cfg.Acquire {
		qualified = append(qualified, a[0])
	}
	for _, q := range qualified {
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
