package sprintcon

import (
	"bufio"
	"go/ast"
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
	for _, p := range nonTestGoFiles(t) {
		dir := module + "/" + filepath.ToSlash(filepath.Dir(p))
		if strings.HasPrefix(dir, internalPrefix) {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if ip != dir && strings.HasPrefix(ip, internalPrefix) {
				importers[ip] = true
			}
		}
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

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ has no caller outside tests and examples/: its name appears in
// no non-test file except as its own declaration. perfbench counts as a
// caller. The match is by identifier, not by type, so an export that shares
// its name with anything a program uses passes; the test is a floor, not a
// full dead-code check. MarshalJSON and UnmarshalJSON methods are exempt
// (encoding/json calls them through its interfaces), and so is each
// allowlisted name, which gives its reason and must still be test-only.
func TestNoTestOnlyExports(t *testing.T) {
	allow := map[string]string{
		"checkpoint.NewMemStore":   "in-memory Store fake the core, hier and checkpoint crash-restore tests share",
		"checkpoint.MemStore.Drop": "test-support method of the MemStore fake above; it goes when the fake does",
		"faults.KindsForScope":     "fault catalogue by scope that the core and hier chaos storms draw from",
		"workload.SteppedDiurnal":  "stepped diurnal trace the core, hier and workload tests share for quiescent event-engine runs",
	}
	decls := map[string][]string{} // identifier → qualified exported declarations under internal/
	used := map[string]bool{}      // identifiers that appear other than as a function's own name
	fset := token.NewFileSet()
	for _, p := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		internal := strings.HasPrefix(filepath.ToSlash(p), "internal/")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			name := fd.Name.Name
			if !internal || !fd.Name.IsExported() ||
				(fd.Recv != nil && (name == "MarshalJSON" || name == "UnmarshalJSON")) {
				continue
			}
			q := filepath.Base(filepath.Dir(p)) + "."
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					q += id.Name + "."
				}
			}
			decls[name] = append(decls[name], q+name)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	var testOnly []string
	found := map[string]bool{}
	for name, qs := range decls {
		if used[name] {
			continue
		}
		for _, q := range qs {
			found[q] = true
			if _, ok := allow[q]; !ok {
				testOnly = append(testOnly, q)
			}
		}
	}
	for q := range allow {
		if !found[q] {
			t.Errorf("allowlisted %s is no longer a test-only export; drop it from the allowlist", q)
		}
	}
	sort.Strings(testOnly)
	if len(testOnly) > 0 {
		t.Fatalf("exported functions under internal/ with no caller outside tests and examples/: %s; "+
			"call each from a command, experiment or sprintd, move a test helper into its package's "+
			"_test.go files, or delete it", strings.Join(testOnly, ", "))
	}
}

// nonTestGoFiles lists the repository's non-test Go files, relative to its
// root, as the go tool would build them: "." and "_" directories and
// testdata are skipped, and so is examples/, whose programs do not count as
// consumers. perfbench, a separate module that builds against this tree, is
// included.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || p == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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
