package obs

import (
	"io"
	"os"
	"path/filepath"
)

// Export writes the bundle's telemetry to files: metricsPath receives
// the registry as Prometheus text and tracePath receives the Chrome
// trace-event JSON of all finished spans. Empty paths are skipped;
// a nil *Obs writes nothing. This is the shared backend of the
// --metrics-out/--trace-out command-line flags.
func (o *Obs) Export(metricsPath, tracePath string) error {
	if o == nil {
		return nil
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, o.Reg.WritePrometheus); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := writeFile(tracePath, o.Trc.WriteChromeTrace); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path — including any missing parent directories,
// so `-metrics-out out/run1/metrics.prom` works on a fresh checkout —
// runs write, and surfaces the first error, including Close, since a
// truncated telemetry file parses as a lie.
func writeFile(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
