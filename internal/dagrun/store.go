package dagrun

import (
	"os"
	"path/filepath"

	"convmeter/internal/dagrun/manifest"
)

// manifestPath places node id's manifest inside the run directory. New
// rejects ids with path separators, so the id is safe as a file name.
func manifestPath(dir, id string) string {
	return filepath.Join(dir, id+".json")
}

// ensureDir creates the run directory.
func ensureDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

// loadManifest reads and verifies node id's manifest, failing closed: a
// manifest that is unreadable, unparsable, hash-mismatched, or filed
// under the wrong node id returns (nil, FailCloseCorrupt) and the node
// re-runs. An absent manifest, the normal first-run case, is no
// rejection and returns (nil, ""). Only a manifest that survives every
// check is returned — and even then the executor still compares its
// fingerprint against the current run before trusting it.
func loadManifest(dir, id string) (*manifest.Manifest, string) {
	data, err := os.ReadFile(manifestPath(dir, id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ""
		}
		return nil, FailCloseCorrupt
	}
	m, err := manifest.Parse(data)
	if err != nil {
		return nil, FailCloseCorrupt
	}
	if m.Node != id {
		return nil, FailCloseCorrupt
	}
	return m, ""
}

// writeFileAtomic commits data to path with crash *and* power-loss
// durability: write to a temp file in the same directory, fsync the file
// so its contents reach stable storage before the rename, rename over
// the target (atomic on POSIX), then fsync the parent directory so the
// rename itself is durable. Rename-without-fsync only survives process
// death — after a power cut the filesystem may replay the rename against
// an unwritten inode and leave an empty or truncated "committed" file,
// which is exactly the torn state a fail-close manifest must never
// present.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
