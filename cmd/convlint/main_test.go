package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONOutput pins the -json contract that CI's annotation step
// reads with jq: a clean run prints [] and exits 0; a finding carries
// file, line, col, analyzer and message, and exits 1; why is omitted
// when empty.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/fix\n\ngo 1.22\n")
	write("lint.config", "analytical example.com/fix\n")
	config := filepath.Join(dir, "lint.config")

	write("fix.go", "package fix\n\nfunc Same(a, b int) bool { return a == b }\n")
	var out bytes.Buffer
	if code := run(&out, dir, config, true, false, nil); code != 0 {
		t.Fatalf("clean run exited %d, want 0; stdout:\n%s", code, out.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean run printed %q, want []", got)
	}

	line := "func Same(a, b float64) bool { return a == b }"
	write("fix.go", "package fix\n\n"+line+"\n")
	out.Reset()
	if code := run(&out, dir, config, true, false, nil); code != 1 {
		t.Fatalf("run with a finding exited %d, want 1; stdout:\n%s", code, out.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want the one float comparison: %v", len(findings), findings)
	}
	f := findings[0]
	want := map[string]any{
		"file":     "fix.go",
		"line":     float64(3),
		"col":      float64(strings.Index(line, "==") + 1),
		"analyzer": "floatcmp",
	}
	for key, v := range want {
		if f[key] != v {
			t.Errorf("finding %s = %v, want %v", key, f[key], v)
		}
	}
	if msg, _ := f["message"].(string); msg == "" {
		t.Errorf("finding has no message: %v", f)
	}
	if why, ok := f["why"]; ok {
		t.Errorf("finding carries why %q; an empty why must be omitted", why)
	}
	if len(f) != 5 {
		t.Errorf("finding has keys %v, want exactly file, line, col, analyzer and message", f)
	}
}
