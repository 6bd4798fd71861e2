package lint

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseConfig hardens the lint.config parser against malformed
// input: it must either return an error or a self-consistent Config —
// never panic, never silently accept a contradiction. The parser is the
// root of trust for every analyzer scope; a crash or a laundered
// duplicate here disables the boundary rule for the whole repository.
// On-disk seeds live in testdata/fuzz/FuzzParseConfig.
func FuzzParseConfig(f *testing.F) {
	f.Add("analytical convmeter/internal/core\nmeasured convmeter/internal/exec\n")
	f.Add("# comment only\n\n   \n")
	f.Add("allow a b\nallow a\n")
	f.Add("hotpath convmeter/internal/exec.conv2d\nhotpath NoDotHere\n")
	f.Add("deterministic p\ndeterministic p\n")
	f.Add("analytical p\nmeasured p\n")
	f.Add("bogus directive here\n")
	f.Add("analytical\tp\r\nmeasured\tq\r\n") // CRLF + tab separators
	f.Add("analytical p extra\n")
	f.Add("hotpath a.b\nhotpath a.b\ndeterministic x\ndeterministic x y\n")
	f.Add("hotpath convmeter/internal/exec.conv2d\nhotpath convmeter/internal/obs.Counter.Add\n")
	f.Add("hotpath NoDotHere\n")
	f.Add("hotpath a.b\nhotpath a.b\n")
	f.Add("lifetime convmeter/internal/allreduce\nlifetime convmeter/internal/obs\n")
	f.Add("lifetime convmeter\nanalytical convmeter/internal/core\ndeterministic convmeter/internal/core\n")
	f.Add("allow a b\nallow a b\n")                             // repeated allow entries must round-trip
	f.Add("lifetime p # trailing comment\nhotpath a.b extra\n") // comments are whole-line only
	f.Add("hotpath convmeter/internal/obs/ops.Server.Close\nhotpath a.b.c\n")
	f.Add("lifetime p\nlifetime p\n")

	f.Fuzz(func(t *testing.T, input string) {
		cfg, err := ParseConfig(strings.NewReader(input), "fuzz.config")
		if err != nil {
			if cfg != nil {
				t.Fatal("error and non-nil config together")
			}
			return // rejection is fine; panics are not
		}
		if cfg == nil {
			t.Fatal("nil config without error")
		}
		// Accepted configs must be internally consistent: no duplicates
		// within a stanza, no package on both sides of the boundary, and
		// every hotpath entry qualified.
		for stanza, entries := range map[string][]string{
			"analytical":    cfg.Analytical,
			"measured":      cfg.Measured,
			"deterministic": cfg.Deterministic,
			"hotpath":       cfg.Hotpath,
			"lifetime":      cfg.Lifetime,
		} {
			seen := map[string]bool{}
			for _, e := range entries {
				if seen[e] {
					t.Fatalf("accepted duplicate %s entry %q", stanza, e)
				}
				seen[e] = true
				if strings.TrimSpace(e) != e || e == "" {
					t.Fatalf("accepted unstripped %s entry %q", stanza, e)
				}
			}
		}
		for _, a := range cfg.Analytical {
			for _, m := range cfg.Measured {
				if a == m {
					t.Fatalf("accepted %q on both sides of the boundary", a)
				}
			}
		}
		for _, h := range cfg.Hotpath {
			if !strings.Contains(h, ".") {
				t.Fatalf("accepted unqualified hotpath entry %q", h)
			}
		}
		// An accepted config must round-trip: re-serialising its entries
		// as config lines and re-parsing yields the identical Config.
		var sb strings.Builder
		for _, e := range cfg.Analytical {
			fmt.Fprintf(&sb, "analytical %s\n", e)
		}
		for _, e := range cfg.Measured {
			fmt.Fprintf(&sb, "measured %s\n", e)
		}
		for _, a := range cfg.Allow {
			fmt.Fprintf(&sb, "allow %s %s\n", a[0], a[1])
		}
		for _, e := range cfg.Deterministic {
			fmt.Fprintf(&sb, "deterministic %s\n", e)
		}
		for _, e := range cfg.Hotpath {
			fmt.Fprintf(&sb, "hotpath %s\n", e)
		}
		for _, e := range cfg.Lifetime {
			fmt.Fprintf(&sb, "lifetime %s\n", e)
		}
		back, err := ParseConfig(strings.NewReader(sb.String()), "roundtrip.config")
		if err != nil {
			t.Fatalf("round trip of accepted config failed: %v", err)
		}
		if !equalConfig(cfg, back) {
			t.Fatalf("round trip changed config:\n%+v\nvs\n%+v", cfg, back)
		}
	})
}

func equalConfig(a, b *Config) bool {
	eq := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.Analytical, b.Analytical) || !eq(a.Measured, b.Measured) ||
		!eq(a.Deterministic, b.Deterministic) || !eq(a.Hotpath, b.Hotpath) ||
		!eq(a.Lifetime, b.Lifetime) || len(a.Allow) != len(b.Allow) {
		return false
	}
	for i := range a.Allow {
		if a.Allow[i] != b.Allow[i] {
			return false
		}
	}
	return true
}
