package cli

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFitMetricsHaveNoDrift: a fit run with -metrics-out exports the
// dataset read and no drift series. The drift monitor checks only the
// chaos trainer's recorded step times; a fit's in-sample accuracy is
// what -stats and the offline LOMO reports are for.
func TestFitMetricsHaveNoDrift(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"inference", "train-multi"} {
		data := writeSmallDataset(t, kind != "inference")
		metricsPath := filepath.Join(dir, kind+".prom")
		code, _, errOut := run(t, "fit", "-kind", kind, "-data", data,
			"-out", filepath.Join(dir, kind+".json"), "-metrics-out", metricsPath)
		if code != 0 {
			t.Fatalf("%s fit failed: %s", kind, errOut)
		}
		raw, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		var rowsRead float64
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "convmeter_drift_") {
				t.Errorf("%s fit exported a drift series: %s", kind, line)
			}
			if v, ok := strings.CutPrefix(line, `convmeter_bench_csv_rows_total{op="read"} `); ok {
				if rowsRead, err = strconv.ParseFloat(v, 64); err != nil {
					t.Fatalf("%s fit: bad CSV row count %q", kind, v)
				}
			}
		}
		if rowsRead <= 0 {
			t.Errorf("%s fit exported no dataset read: convmeter_bench_csv_rows_total{op=\"read\"} = %g", kind, rowsRead)
		}
	}
}

// TestOpsAddrRejected: the commands that take the telemetry flags
// write their signals to files only; -ops-addr is an unknown flag, and
// the command fails before any work runs.
func TestOpsAddrRejected(t *testing.T) {
	for _, cmd := range []string{"fit", "predict", "dissect"} {
		code, out, errOut := run(t, cmd, "-ops-addr", "localhost:0")
		if code != 1 || out != "" || !strings.Contains(errOut, "flag provided but not defined: -ops-addr") {
			t.Fatalf("%s -ops-addr: code=%d out=%q err=%q, want an unknown-flag error", cmd, code, out, errOut)
		}
	}
}
