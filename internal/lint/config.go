package lint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Config is the parsed lint.config: the classification of packages
// into analytical and measured sides of the paper's boundary, an
// allowlist of explicitly sanctioned analytical→measured imports, and
// the scopes of the dataflow analyzers — which packages promise
// deterministic (replayable) results, which functions are hot-path
// roots, and which packages track resource lifetimes.
//
// The file format is line-oriented:
//
//	# comment
//	analytical    <import-path-prefix>
//	measured      <import-path-prefix>
//	allow         <importer-prefix> <imported-prefix>
//	deterministic <import-path-prefix>
//	hotpath       <import-path>.<Func>
//	hotpath       <import-path>.<Recv>.<Method>
//	lifetime      <import-path-prefix>
//
// Prefixes match whole path segments: "convmeter/internal/core" covers
// that package and everything below it. A hotpath entry declares one
// function (or method, via its receiver type name) as a hot-path root:
// everything reachable from it inside its own package must stay
// allocation-free, which the hotpath and hotdefer analyzers enforce.
// A lifetime entry scopes the resource-lifetime analyzer (DESIGN.md
// §6c).
type Config struct {
	Analytical    []string
	Measured      []string
	Allow         [][2]string
	Deterministic []string
	Hotpath       []string // qualified "import/path.Func" or "import/path.Recv.Method" roots
	Lifetime      []string // lifetime analyzer scope prefixes
}

// ParseConfig reads a lint.config stream. Every malformed line is
// reported — bad configuration must fail loudly, or a typo could
// silently disable the boundary rule. The same prefix declared twice —
// in one stanza or on both sides of the boundary — is also an error:
// duplicate classifications are either dead weight or a contradiction.
func ParseConfig(r io.Reader, name string) (*Config, error) {
	cfg := &Config{}
	var errs []string
	seen := map[string]bool{} // stanza-qualified entries
	declare := func(ln int, stanza, key string) bool {
		if seen[stanza+"\x00"+key] {
			errs = append(errs, fmt.Sprintf("%s:%d: duplicate %s entry %q", name, ln, stanza, key))
			return false
		}
		seen[stanza+"\x00"+key] = true
		return true
	}
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "analytical", "measured", "deterministic", "hotpath", "lifetime":
			if len(fields) != 2 {
				errs = append(errs, fmt.Sprintf("%s:%d: %q takes exactly one argument, got %d fields", name, ln, fields[0], len(fields)-1))
				continue
			}
			if !declare(ln, fields[0], fields[1]) {
				continue
			}
			switch fields[0] {
			case "analytical":
				cfg.Analytical = append(cfg.Analytical, fields[1])
			case "measured":
				cfg.Measured = append(cfg.Measured, fields[1])
			case "deterministic":
				cfg.Deterministic = append(cfg.Deterministic, fields[1])
			case "hotpath":
				// Bare names cannot resolve and would silently guard nothing.
				if !strings.Contains(fields[1], ".") {
					errs = append(errs, fmt.Sprintf("%s:%d: hotpath entry %q is not a qualified function (want <import-path>.<Func> or <import-path>.<Recv>.<Method>)", name, ln, fields[1]))
					continue
				}
				cfg.Hotpath = append(cfg.Hotpath, fields[1])
			case "lifetime":
				cfg.Lifetime = append(cfg.Lifetime, fields[1])
			}
		case "allow":
			if len(fields) != 3 {
				errs = append(errs, fmt.Sprintf("%s:%d: \"allow\" takes importer and imported paths, got %d fields", name, ln, len(fields)-1))
				continue
			}
			cfg.Allow = append(cfg.Allow, [2]string{fields[1], fields[2]})
		default:
			errs = append(errs, fmt.Sprintf("%s:%d: unknown directive %q (want analytical, measured, allow, deterministic, hotpath or lifetime)", name, ln, fields[0]))
		}
	}
	// A package on both sides of the boundary is a contradiction the
	// boundary analyzer would resolve arbitrarily; reject it outright.
	for _, a := range cfg.Analytical {
		for _, m := range cfg.Measured {
			if a == m {
				errs = append(errs, fmt.Sprintf("%s: %q classified both analytical and measured", name, a))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: invalid config:\n\t%s", strings.Join(errs, "\n\t"))
	}
	return cfg, nil
}

// LoadConfig parses a lint.config file from disk.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f, path)
}

// pathHasPrefix reports whether the import path is the prefix itself
// or lies below it in the package hierarchy.
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// classify returns which side of the boundary a package falls on:
// "analytical", "measured", or "" for unclassified packages.
func (c *Config) classify(importPath string) string {
	for _, p := range c.Analytical {
		if pathHasPrefix(importPath, p) {
			return "analytical"
		}
	}
	for _, p := range c.Measured {
		if pathHasPrefix(importPath, p) {
			return "measured"
		}
	}
	return ""
}

// allowed reports whether the analytical→measured import has an
// explicit allowlist entry.
func (c *Config) allowed(importer, imported string) bool {
	for _, a := range c.Allow {
		if pathHasPrefix(importer, a[0]) && pathHasPrefix(imported, a[1]) {
			return true
		}
	}
	return false
}

// deterministicScope reports whether a package declared itself
// deterministic: its exported results, serialized output and hash
// inputs must be bit-identical across runs and goroutine schedules.
func (c *Config) deterministicScope(importPath string) bool {
	for _, p := range c.Deterministic {
		if pathHasPrefix(importPath, p) {
			return true
		}
	}
	return false
}

// hotpathRoots returns the local names ("Func" or "Recv.Method") of the
// hot-path roots declared for exactly the given package. Hotpath entries
// name single functions, so — unlike the prefix stanzas — the package
// part must match exactly: an entry for a subpackage has a '/' in its
// remainder and is skipped.
func (c *Config) hotpathRoots(importPath string) []string {
	var roots []string
	for _, e := range c.Hotpath {
		rest, ok := strings.CutPrefix(e, importPath+".")
		if !ok || rest == "" || strings.Contains(rest, "/") {
			continue
		}
		roots = append(roots, rest)
	}
	return roots
}

// lifetimeScope reports whether a package opted into the
// acquire/release resource-lifetime discipline.
func (c *Config) lifetimeScope(importPath string) bool {
	for _, p := range c.Lifetime {
		if pathHasPrefix(importPath, p) {
			return true
		}
	}
	return false
}
