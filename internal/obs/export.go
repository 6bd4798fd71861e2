package obs

import (
	"io"
	"os"
	"path/filepath"
)

// Export writes one at-exit file of a run: it creates path — including
// any missing parent directories, so `-trace-out out/run1/trace.json`
// works on a fresh checkout — runs write into it, and surfaces the
// first error, Close's included, since a truncated file parses as a
// lie. Every -*-out flag of cmd/experiments, convmeter and benchgen
// writes through it.
func Export(path string, write func(io.Writer) error) error {
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
