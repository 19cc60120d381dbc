package uldma_test

// The reachability check: every exported func, method, type or var in
// internal/ must have a user among the non-test files of the tree (the
// mains under cmd/ and examples/, the internal packages themselves, the
// root, and perfbench/). So must every exported constant save the zero
// member of a named constant type, and a Sys* syscall number needs its
// user outside its own package: the kernel's dispatch switch is not an
// issuer. An export only tests reach is surface nothing ships; each
// finding is deleted with the tests that only it serves, moved into its
// package's export_test.go or the one _test.go file that uses it, or
// listed in reachAllow with its reason. The check uses only go/build,
// go/parser, go/constant and go/types: the tree's packages are
// type-checked from source, the standard library through the "source"
// importer.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow holds the exports only tests reach that stay anyway. An
// entry is either an invariant checker or reference model that tests
// in another package need, or a hook that DESIGN's experiment tables
// (§5, §7) name as an experiment's evidence. It holds at most ten
// entries, each with its reason; an entry the check no longer reports
// fails it.
var reachAllow = map[string]string{
	"bus.(*WriteBuffer).SetDrainOnLoadMiss": "X3 ablation hook (DESIGN §7, §3.4): the bus and core barrier tests switch load-miss draining off",
	"core.BreakEven":                        "X6 serial reference (DESIGN §5, §7): rewinds one world in place between sizes; core's crossover test and exp's breakeven parity test read it",
	"dma.(*Engine).CheckInvariants":         "invariant checker: the streaming audit's latch plus the live records' byte sum, which core, dma and root soak tests call after a run",
	"dma.(*Engine).ResumeFaulted":           "reference model of the kernel's page-in resume: no kernel path wakes a transfer parked with the pager off, so the VA snapshot tests in core and dma play that part",
	"kernel.(*Kernel).KernelModified":       "invariant checker for the paper's claim: core's preemption test asserts the user-level methods leave the kernel unmodified",
	"kernel.(*Kernel).MaterializeTable":     "reference model: lays a process's mappings out as hardware page tables for vm's Walk; in kernel's export_test.go it would strand vm.Materialize instead",
	"vm.(*MaterializedTable).Walk":          "reference model: the hardware page walk that kernel's and vm's tests check against the software map (DESIGN §4 vm row)",
}

func TestNoTestOnlyExports(t *testing.T) {
	findings, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, f := range findings {
		reported[f.name] = true
		if _, ok := reachAllow[f.name]; ok {
			continue
		}
		t.Errorf("%s: %s is exported but %s; delete it "+
			"with the tests that only it serves, move it into its package's "+
			"export_test.go or the one _test.go file that uses it, or list it "+
			"in reachAllow (reach_test.go) with its reason", f.pos, f.name, f.rule)
	}
	if len(reachAllow) > 10 {
		t.Errorf("reachAllow has %d entries; it holds at most 10", len(reachAllow))
	}
	for name := range reachAllow {
		if !reported[name] {
			t.Errorf("reachAllow lists %s, which the check no longer reports; drop the entry", name)
		}
	}
}

// TestReachFixture runs the check over testdata/reach, a small module
// with one export of each kind the check must tell apart.
func TestReachFixture(t *testing.T) {
	findings, err := testOnlyExports(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.pos+" "+f.name)
	}
	want := []string{
		"internal/lib/lib.go:30:2 lib.SysX",
		"internal/lib/lib.go:49:2 lib.Blue",
		"internal/lib/lib.go:53:7 lib.Width",
		"internal/lib/lib.go:9:6 lib.OnlyTested",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type reachFinding struct {
	pos  string // file:line:col, relative to the scanned root
	name string // pkg.Name or pkg.(*T).Name, pkg relative to internal/
	rule string // the use it lacks
}

// testOnlyExports type-checks every package under root (nested modules
// included, each under the module path its go.mod names) and reports
// each exported object declared in a non-test file of a package under
// internal/ that no non-test file uses — for a Sys* constant, no
// non-test file outside its package. The zero member of a named
// constant type, String/Error/MarshalJSON methods, methods that satisfy
// a used interface method, and packages whose name ends in "test" are
// exempt.
func testOnlyExports(root string) ([]reachFinding, error) {
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		mod, modDir := path, path
		for ; ; modDir = filepath.Dir(modDir) {
			if m, err := modulePath(filepath.Join(modDir, "go.mod")); err == nil {
				mod = m
				break
			}
			if modDir == root {
				return fmt.Errorf("reach: no go.mod above %s", path)
			}
		}
		rel, _ := filepath.Rel(modDir, path)
		if rel == "." {
			dirs[mod] = path
		} else {
			dirs[mod+"/"+filepath.ToSlash(rel)] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := &treeImporter{fset: fset, dirs: dirs, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, used: map[types.Object]bool{}, usedOutside: map[types.Object]bool{}}
	var paths []string
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return nil, err
			}
		}
	}

	var out []reachFinding
	for _, p := range paths {
		pkg := imp.pkgs[p]
		i := strings.Index(p, "/internal/")
		if pkg == nil || i < 0 || strings.HasSuffix(pkg.Name(), "test") {
			continue
		}
		short := p[i+len("/internal/"):]
		report := func(obj types.Object, name string) {
			reached, rule := imp.used[obj], "no non-test file uses it"
			if _, ok := obj.(*types.Const); ok && strings.HasPrefix(name, "Sys") {
				reached, rule = imp.usedOutside[obj], "no non-test file outside its package uses it"
			}
			if !obj.Exported() || reached {
				return
			}
			pos := fset.Position(obj.Pos())
			file, _ := filepath.Rel(root, pos.Filename)
			out = append(out, reachFinding{
				pos:  fmt.Sprintf("%s:%d:%d", filepath.ToSlash(file), pos.Line, pos.Column),
				name: short + "." + name,
				rule: rule,
			})
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func, *types.Var:
				report(obj, n)
			case *types.Const:
				if _, named := obj.Type().(*types.Named); !named || strings.HasPrefix(n, "Sys") || !zeroConst(obj.Val()) {
					report(obj, n)
				}
			case *types.TypeName:
				report(obj, n)
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for j := 0; j < named.NumMethods(); j++ {
					m := named.Method(j)
					switch m.Name() {
					case "String", "Error", "MarshalJSON":
						continue
					}
					if imp.satisfiesUsedInterface(named, m) {
						continue
					}
					recv := n
					if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						recv = "*" + n
					}
					report(m, "("+recv+")."+m.Name())
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].pos < out[b].pos })
	return out, nil
}

// treeImporter type-checks the tree's packages from their non-test
// files, memoized, and records every object those files use; anything
// else comes from the standard library's source importer.
type treeImporter struct {
	fset        *token.FileSet
	dirs        map[string]string
	std         types.Importer
	pkgs        map[string]*types.Package
	used        map[types.Object]bool
	usedOutside map[types.Object]bool // used by a package other than its own
}

func (imp *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := imp.dirs[path]
	if !ok {
		return imp.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(imp.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(path, imp.fset, files, info)
	if err != nil {
		return nil, err
	}
	imp.pkgs[path] = pkg
	for _, f := range files {
		for _, decl := range f.Decls {
			// A function's calls to itself do not make it used.
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := origin(info.Uses[id]); obj != nil && obj != self {
						imp.used[obj] = true
						if obj.Pkg() != pkg {
							imp.usedOutside[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	return pkg, nil
}

// satisfiesUsedInterface reports whether m, a method of named, is
// reachable through a used interface method: some interface whose
// method of that name a non-test file uses is implemented by named or
// by a pointer to it.
func (imp *treeImporter) satisfiesUsedInterface(named *types.Named, m *types.Func) bool {
	for obj := range imp.used {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != m.Name() {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if ok && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}

// zeroConst reports whether v is its type's zero value.
func zeroConst(v constant.Value) bool {
	switch v.Kind() {
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Bool:
		return !constant.BoolVal(v)
	}
	return constant.Sign(v) == 0
}

// origin maps an instantiated generic func or var to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
