package twophase_bench

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

// keptHooks are the exported names under internal/ that no non-test file
// names, kept on purpose: each is read by a test that pins live behaviour.
// The list is exact — an entry that stops being needed fails the test too.
// One more kept hook cannot appear here because the method rule is by bare
// name: lifecycle.Manager.Entries (+ EntryStats), the cache residency
// snapshot the lifecycle and service eviction tests assert on, is masked
// by perfmatrix.Matrix's Entries field.
var keptHooks = map[string]string{
	"modelhub.CachedSplits":     "feature-cache residency after a select (TestCatalogSweepStaysResident, core.Build release check)",
	"modelhub.SourceHeadPasses": "counts source-head passes: the hoist tests prove one pass per cached split",
	"cluster.Passes":            "counts clustering passes: the warm-start tests prove a rehydrated world never re-clusters",
	"faultinject.Reset":         "disarms the process-wide schedule; every test that Activates defers it",
	"shard.Breakers":            "the router's breaker set, read by the chaos and breaker suites to wait for reconvergence",
	"breaker.AllClosed":         "reconvergence predicate over shard.Router.Breakers (same suites)",
	"shard.Owner":               "a key's primary owner; bench/stats_test.go splits batches by it",
}

// harnessPackages are internal packages that are test support by design:
// every caller of their exported names is a _test.go file of the same
// package, so the rule below has nothing to say about them.
var harnessPackages = map[string]string{
	"internal/chaos": "shared helpers of the chaos suites (contract_test.go, e2e_test.go); no non-test importer",
}

// stdlibHooks are methods the standard library calls through its own
// interfaces, which no identifier in this module needs to name.
var stdlibHooks = map[string]bool{
	"Unwrap": true, // errors.Is / errors.As
}

// TestExportedSurfaceIsUsed makes "exported surface = reachable surface" a
// tier-1 check: every exported top-level func, method, type, const and var
// declared in a non-test file under internal/ must be named, other than by
// its own declaration, in a non-test .go file of the module (cmd/,
// examples/, bench/ included).
//
// It is syntactic (go/parser only) and over-approximates use by name. A
// func, type, const or var pkg.Foo counts as used when some file names
// pkg.Foo, or a file of pkg names a bare Foo. A method Foo counts as used
// when anything called Foo is named anywhere — a field, another type's
// method, a method in a module interface (which is how interface
// satisfaction is covered). So it can miss dead code, and the report-only
// `make deadcode` CI step remains the precise second opinion, but it never
// flags live code.
func TestExportedSurfaceIsUsed(t *testing.T) {
	type decl struct {
		pkg, name string
		method    bool
		pos       string
	}
	fset := token.NewFileSet()
	var declared []decl // exported declarations under internal/
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File

	walkSources(t, fset, func(path string, f *ast.File) {
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || harnessPackages[dir] != "" {
			return
		}
		add := func(id *ast.Ident, method bool) {
			declIdents[id] = true
			if id.IsExported() {
				declared = append(declared, decl{f.Name.Name, id.Name, method, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Recv != nil)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, false)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, false)
						}
					}
				}
			}
		}
	})

	named := map[string]bool{}     // any identifier, by bare name
	qualified := map[string]bool{} // "pkg.Name": pkg.Name anywhere, or a bare Name inside pkg
	for _, f := range files {
		alias := map[string]string{} // import name -> package name, where renamed
		for _, imp := range f.Imports {
			if imp.Name != nil {
				alias[imp.Name.Name] = filepath.Base(strings.Trim(imp.Path.Value, `"`))
			}
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					pkg := x.Name
					if real, ok := alias[pkg]; ok {
						pkg = real
					}
					qualified[pkg+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if declIdents[n] {
					break
				}
				named[n.Name] = true
				if !selected[n] {
					qualified[f.Name.Name+"."+n.Name] = true
				}
			}
			return true
		})
	}

	needed := map[string]bool{}
	var unused []string
	for _, d := range declared {
		key := d.pkg + "." + d.name
		if d.method && (named[d.name] || stdlibHooks[d.name]) || !d.method && qualified[key] {
			continue
		}
		if keptHooks[key] != "" {
			needed[key] = true
			continue
		}
		unused = append(unused, d.pos+": "+key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file names it: delete it, unexport it, or add it to keptHooks with the test that needs it", u)
	}
	for key := range keptHooks {
		if !needed[key] {
			t.Errorf("keptHooks lists %s, which is either gone or named by non-test code now: drop the entry", key)
		}
	}
}

// ownPools are the non-test files outside bench/ allowed to coordinate
// goroutines with their own sync.WaitGroup instead of internal/fanout.
// The list is exact — an entry that stops being needed fails the test too.
var ownPools = map[string]string{
	"internal/fanout/fanout.go":    "the one bounded fan-out itself",
	"internal/numeric/parallel.go": "contiguous row blocks sized by flops, under a non-blocking process-wide helper reservation",
	"cmd/loadgen/main.go":          "open-loop load driver: arrivals are paced by a clock, not claimed by workers",
}

// TestOneFanOut makes "one bounded fan-out" a tier-1 check: a non-test
// file outside bench/ that names sync.WaitGroup is hand-rolling a pool
// (width, cancellation, first-error and panic rules of its own) and must
// go through fanout.Each / fanout.Errors instead.
func TestOneFanOut(t *testing.T) {
	fset := token.NewFileSet()
	needed := map[string]bool{}
	walkSources(t, fset, func(path string, f *ast.File) {
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "bench/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "WaitGroup" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "sync" {
				return true
			}
			if ownPools[path] != "" {
				needed[path] = true
			} else {
				t.Errorf("%s: sync.WaitGroup outside internal/fanout: run the items through fanout.Each or fanout.Errors", fset.Position(sel.Pos()))
			}
			return true
		})
	})
	for path := range ownPools {
		if !needed[path] {
			t.Errorf("ownPools lists %s, which is gone or no longer names sync.WaitGroup: drop the entry", path)
		}
	}
}

// walkSources parses every non-test .go file of the module (hidden and
// testdata directories skipped) and hands each to fn with its path.
func walkSources(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
