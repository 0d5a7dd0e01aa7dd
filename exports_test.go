package v10

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsTestOnly lists the test-only internal packages that the "Dead
// packages" step in .github/workflows/ci.yml allows: no binary links them,
// so their exports serve their own tests and are exempt here.
var exportsTestOnly = map[string]bool{
	"internal/systolic": true,
	"internal/bf16":     true,
}

// exportsAllowed lists the exported functions and methods that no non-test
// code names but that stay, keyed "package-dir.Name", with the reason each
// stays.
var exportsAllowed = map[string]string{
	"internal/faults.MarshalJSON":      "json.Marshaler, called through the interface",
	"internal/faults.UnmarshalJSON":    "json.Unmarshaler, called through the interface",
	"internal/simcheck.UnmarshalJSON":  "json.Unmarshaler, called through the interface",
	"internal/fleet.Unwrap":            "errors.As and errors.Is call it through the interface",
	"internal/sched.Unwrap":            "errors.As and errors.Is call it through the interface",
	"internal/sim.EventStats":          "engine counters the planned v10serve -selfstats report reads (ROADMAP)",
	"internal/sim.ChurnStats":          "fluid-pool counters the planned v10serve -selfstats report reads (ROADMAP)",
	"internal/sim.TotalBytes":          "fluid-pool traffic the planned v10serve -selfstats report reads (ROADMAP)",
	"internal/obs.Dropped":             "public through v10.TraceRing",
	"internal/obs.SumDur":              "public through v10.TraceRing",
	"internal/sim.Pending":             "test probe of the engine's live event count",
	"internal/sim.Armed":               "test probe of a timer's state",
	"internal/vnpu.FreeVMem":           "test probe of a slice's vmem ceiling",
	"internal/vnpu.VMemUsed":           "test probe of a slice's vmem ceiling",
	"internal/tune.Ranges":             "test probe of the knob space's bounds",
	"internal/npu.SANaiveContextBytes": "the systolic model's test ties it to the SA context size",
	"internal/mathx.LogNormalMean":     "the mean models.jitterDraw documents matching",
}

// receiverExported reports whether fd is a function or a method of an
// exported type; methods of unexported types (sort or heap interface
// implementations, say) are not part of a package's API.
func receiverExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return true
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// TestExportsLinked fails when an exported function or method declared in
// non-test code under internal/ is named by no non-test file of the
// repository: such code only tests run, so it is either dead or needs a
// reason on exportsAllowed. Names are matched by identifier, so a
// function shares a reference with every other declaration of its name.
func TestExportsLinked(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, name string // key is "package-dir.Name"
		pos       token.Position
	}
	var decls []decl // in walk order: by path, then by position
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, x := range f.Decls {
			fd, ok := x.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() && receiverExported(fd) && strings.HasPrefix(dir, "internal/") && !exportsTestOnly[dir] {
				decls = append(decls, decl{dir + "." + fd.Name.Name, fd.Name.Name, fset.Position(fd.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	needed := map[string]bool{}
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		if _, ok := exportsAllowed[d.key]; ok {
			needed[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but only tests call it: delete it, or allowlist it in exportsAllowed with its reason", d.pos, d.name)
	}
	var stale []string
	for key := range exportsAllowed {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("exportsAllowed entry %s is stale: non-test code names it, or it is gone", key)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
}
