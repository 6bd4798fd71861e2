package dagrun

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	fdsBefore := countFDs()
	if err := writeFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// The temp file and the directory handle opened for the fsyncs must
	// both be closed again.
	if after := countFDs(); after > fdsBefore {
		t.Fatalf("writeFileAtomic leaked %d file descriptor(s): %d before, %d after", after-fdsBefore, fdsBefore, after)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Fatalf("read back %q, want %q", got, "first")
	}

	// Overwrite must replace the whole file, not append or truncate short.
	if err := writeFileAtomic(path, []byte("second, longer content")); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second, longer content" {
		t.Fatalf("read back %q after overwrite", got)
	}

	// No temp residue: a crash between temp-write and rename may leave
	// one behind, but a successful write never should.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.json" {
			t.Fatalf("leftover file %q in directory after atomic writes", e.Name())
		}
	}

	// Writing into a missing directory fails rather than silently
	// creating state somewhere unexpected.
	if err := writeFileAtomic(filepath.Join(dir, "nope", "x.json"), []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

// countFDs reports the number of open file descriptors, or -1 where
// /proc is unavailable (the comparison in the test then never fails).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
