package lint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanInternalPackages fails when a directory under internal/
// that holds Go files is imported by no Go file outside itself: such a
// package is reached by no experiment, command, test gate or benchmark,
// so nothing shows whether it still works. Test files count as
// importers, and so does cmd/perfbench (its own module, replaced onto
// this checkout); testdata fixtures and dot-directories do not.
func TestNoOrphanInternalPackages(t *testing.T) {
	root := repoRoot(t)
	pkgDirs := map[string]bool{}  // internal/... directories holding Go files
	imported := map[string]bool{} // import paths some file outside the package imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if strings.HasPrefix(dir, "internal/") {
			pkgDirs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			// A package's external test (package x_test) imports it
			// from its own directory, which does not count.
			if imp != "convmeter/"+dir {
				imported[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) == 0 {
		t.Fatal("found no Go files under internal/")
	}
	dirs := make([]string, 0, len(pkgDirs))
	for dir := range pkgDirs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !imported["convmeter/"+dir] {
			t.Errorf("%s: no Go file outside the directory imports convmeter/%s; delete the package or give it a caller", dir, dir)
		}
	}
}
