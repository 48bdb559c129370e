package sprintcon

import (
	"bufio"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails when a package under internal/ has no
// consumer: no non-test file outside the package and outside examples/
// imports it. Examples and a package's own tests do not count, so code
// that only they exercise is reported. perfbench, a separate module that
// builds against this tree, counts as a consumer.
func TestNoOrphanPackages(t *testing.T) {
	module := modulePath(t)
	internalPrefix := module + "/internal/"
	pkgs := map[string]bool{}      // import path → has a non-test file
	importers := map[string]bool{} // import paths imported from outside themselves
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool ignores "." and "_" directories and testdata.
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || p == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := module + "/" + filepath.ToSlash(filepath.Dir(p))
		if strings.HasPrefix(dir, internalPrefix) {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ip != dir && strings.HasPrefix(ip, internalPrefix) {
				importers[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("found no packages under %s", internalPrefix)
	}
	var orphans []string
	for p := range pkgs {
		if !importers[p] {
			orphans = append(orphans, strings.TrimPrefix(p, module+"/"))
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("internal packages with no importer outside their own tests and examples/: %s; "+
			"wire each into a command, experiment or sprintd, or delete it",
			strings.Join(orphans, ", "))
	}
}

// modulePath reads the module path from the repository's go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	f, err := os.Open("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("go.mod has no module line")
	return ""
}
