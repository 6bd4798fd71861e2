// Command convlint runs ConvMeter's custom static-analysis suite over
// Go packages:
//
//	convlint [-config lint.config] [packages...]
//
// With no packages it analyses ./... . Findings print one per line as
// file:line:col analyzer: message, and the exit status is 1 when any
// finding survives suppression (2 on usage or load errors). Suppress a
// finding with `//lint:ignore <analyzer> <reason>` on the offending
// line or the line above.
//
// With -json, findings are emitted instead as a JSON array of
// {file, line, col, analyzer, message, why?} objects on stdout — the
// machine interface CI uses to turn findings into inline code
// annotations. The exit status contract is unchanged, and an empty run
// prints [].
//
// With -why, text output appends each finding's explanation chain —
// for the hotpath family, the lint.config root → … → function call
// chain that made the code hot — as an indented "why:" line. JSON
// output always carries the chain in the "why" field when present.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"convmeter/internal/lint"
)

func main() {
	configPath := flag.String("config", "", "path to lint.config (default: auto-discovered next to go.mod)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	why := flag.Bool("why", false, "print each finding's explanation chain (hotpath reachability)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: convlint [-config lint.config] [-json] [-why] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "convlint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, wd, *configPath, *jsonOut, *why, flag.Args()))
}

// jsonFinding is the -json wire shape of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Why      string `json:"why,omitempty"`
}

// run analyses the packages matching patterns, resolved in the module
// at wd, and reports findings with paths relative to wd.
func run(stdout io.Writer, wd, configPath string, jsonOut, why bool, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if configPath == "" {
		configPath = findConfig(wd)
		if configPath == "" {
			fmt.Fprintln(os.Stderr, "convlint: no lint.config found between here and the filesystem root; pass -config")
			return 2
		}
	}
	cfg, err := lint.LoadConfig(configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "convlint:", err)
		return 2
	}
	pkgs, err := lint.NewLoader(wd).Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "convlint:", err)
		return 2
	}
	findings := lint.Run(pkgs, lint.Suite(cfg))
	for i := range findings {
		findings[i] = relFinding(wd, findings[i])
	}
	switch {
	case jsonOut:
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message, Why: f.Why,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "convlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			// stdout is an injected writer, not literally os.Stdout, so the
			// printer exemption doesn't apply; a failed report print has no
			// better channel than the exit status we already set.
			_, _ = fmt.Fprintln(stdout, f.String())
			if why && f.Why != "" {
				_, _ = fmt.Fprintln(stdout, "\twhy:", f.Why)
			}
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "convlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findConfig walks from dir toward the root looking for lint.config.
func findConfig(dir string) string {
	for {
		p := filepath.Join(dir, "lint.config")
		if _, err := os.Stat(p); err == nil {
			return p
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// relFinding shortens a finding's path relative to the working
// directory.
func relFinding(wd string, f lint.Finding) lint.Finding {
	if r, err := filepath.Rel(wd, f.Pos.Filename); err == nil && !filepath.IsAbs(r) {
		f.Pos.Filename = r
	}
	return f
}
