package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeterminismCatchesFingerprintRegression demonstrates the exact
// regression the determinism analyzer exists to stop: feeding a map
// range into a fingerprint. Manifest resume compares fingerprints
// across process restarts, so an iteration-order-dependent fingerprint
// silently discards valid resume state on a random fraction of runs —
// the kind of bug that passes every unit test and only bites in
// production sweeps. Introducing it into a deterministic-scoped
// package must fail `make lint` (and, via TestConvlintRepoClean, the
// ordinary test run).
func TestDeterminismCatchesFingerprintRegression(t *testing.T) {
	dir := t.TempDir()
	src := `package fp

import "hash/fnv"

// Fingerprint hashes the settings map — by ranging it directly, so the
// digest depends on map iteration order. This is the regression.
func Fingerprint(settings map[string]string) uint64 {
	h := fnv.New64a()
	for k, v := range settings {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte(v))
	}
	return h.Sum64()
}
`
	if err := os.WriteFile(filepath.Join(dir, "fp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(dir).LoadDir(dir, "example.com/fp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Deterministic: []string{"example.com/fp"}}
	findings := Run([]*Package{pkg}, Suite(cfg))
	var hit bool
	for _, f := range findings {
		if f.Analyzer == "determinism" && strings.Contains(f.Message, "map range") &&
			strings.Contains(f.Message, "Fingerprint") {
			hit = true
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !hit {
		t.Fatalf("the fingerprint map-range regression produced no determinism finding; findings: %v", findings)
	}

	// The fixed version — collect, sort, then index — must be clean:
	// the analyzer accepts the idiom it recommends.
	fixed := `package fp

import (
	"hash/fnv"
	"sort"
)

// Fingerprint hashes the settings in sorted key order.
func Fingerprint(settings map[string]string) uint64 {
	keys := make([]string, 0, len(settings))
	for k := range settings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte(settings[k]))
	}
	return h.Sum64()
}
`
	if err := os.WriteFile(filepath.Join(dir, "fp.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err = NewLoader(dir).LoadDir(dir, "example.com/fp")
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run([]*Package{pkg}, Suite(cfg)); len(findings) != 0 {
		t.Fatalf("sorted-key fingerprint still flagged: %v", findings)
	}
}
